package taint

import "testing"

// TestShadowPopulation exercises the live tag population count and the
// write generation behind the trace tier's value-keyed no-op verdicts:
// pop tracks exactly the number of bytes carrying a non-Empty tag, and
// gen advances exactly when a write changes a stored tag — redundant
// writes move neither.
func TestShadowPopulation(t *testing.T) {
	st, sh := newTestShadow()
	if !sh.Taintless() || sh.TagBytes() != 0 {
		t.Fatalf("fresh shadow: pop=%d taintless=%v", sh.TagBytes(), sh.Taintless())
	}
	tag := st.Of(Source{File, "f"})
	tag2 := st.Of(Source{Socket, "s"})

	sh.Set(0x100, tag)
	if sh.TagBytes() != 1 || sh.Taintless() {
		t.Fatalf("after one byte: pop=%d", sh.TagBytes())
	}
	g := sh.Gen()
	sh.Set(0x100, tag) // identical re-write: no movement
	if sh.Gen() != g || sh.TagBytes() != 1 {
		t.Fatalf("redundant Set moved gen %d->%d pop=%d", g, sh.Gen(), sh.TagBytes())
	}
	sh.Set(0x100, tag2) // tag change: gen moves, pop does not
	if sh.Gen() == g || sh.TagBytes() != 1 {
		t.Fatalf("tag change: gen %d->%d pop=%d", g, sh.Gen(), sh.TagBytes())
	}
	sh.Set(0x100, Empty)
	if sh.TagBytes() != 0 || !sh.Taintless() {
		t.Fatalf("after clearing: pop=%d", sh.TagBytes())
	}

	sh.SetWord(0x200, tag)
	if sh.TagBytes() != 4 {
		t.Fatalf("word write: pop=%d, want 4", sh.TagBytes())
	}
	g = sh.Gen()
	sh.SetWord(0x200, tag)
	if sh.Gen() != g {
		t.Fatal("redundant SetWord moved gen")
	}
	sh.Set(0x201, tag2) // splits the word into byte granularity
	if sh.TagBytes() != 4 {
		t.Fatalf("byte split: pop=%d, want 4", sh.TagBytes())
	}
	sh.SetWord(0x200, Empty)
	if sh.TagBytes() != 0 {
		t.Fatalf("word clear: pop=%d", sh.TagBytes())
	}

	sh.SetRange(0xFF0, 32, tag) // crosses a page boundary
	if sh.TagBytes() != 32 {
		t.Fatalf("range write: pop=%d, want 32", sh.TagBytes())
	}
	sh.ClearRange(0xFF0, 16)
	if sh.TagBytes() != 16 {
		t.Fatalf("half clear: pop=%d, want 16", sh.TagBytes())
	}
	cl := sh.Clone()
	if cl.TagBytes() != 16 || cl.Gen() != sh.Gen() {
		t.Fatalf("clone: pop=%d gen=%d, want %d/%d", cl.TagBytes(), cl.Gen(), sh.TagBytes(), sh.Gen())
	}
	g = sh.Gen()
	sh.Reset()
	if sh.TagBytes() != 0 || !sh.Taintless() || sh.Gen() == g {
		t.Fatalf("reset: pop=%d gen %d->%d", sh.TagBytes(), g, sh.Gen())
	}
	if cl.TagBytes() != 16 {
		t.Fatal("reset of the original touched the clone")
	}
}

// TestShadowSourceAfterCachedNil is the negative-TLB regression test
// for the verdict cache's flip moment: a lookup that caches a nil-page
// TLB entry must not mask a source tag written to that page
// immediately afterwards — the exact sequence of a `read`/`recv`
// source arriving while a verdict still believes the world is clean.
func TestShadowSourceAfterCachedNil(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{UserInput, "stdin"})

	// Prime the TLB with the page's nil entry (population zero).
	if sh.GetWord(0x3000) != Empty {
		t.Fatal("fresh page not empty")
	}
	g := sh.Gen()
	// The source lands on the same page: zero -> nonzero population.
	sh.SetRange(0x3000, 8, tag)
	if sh.Taintless() || sh.Gen() == g {
		t.Fatalf("source not accounted: pop=%d gen %d->%d", sh.TagBytes(), g, sh.Gen())
	}
	// The very next lookup must see the tag, not the cached nil.
	if got := sh.GetWord(0x3000); got != tag {
		t.Fatalf("GetWord after cached-nil lookup = %d, want %d", got, tag)
	}
	if got := sh.Get(0x3004); got != tag {
		t.Fatalf("Get after cached-nil lookup = %d, want %d", got, tag)
	}

	// Same sequence through the word path (Set/SetWord share pageAlloc).
	if sh.Get(0x5000) != Empty {
		t.Fatal("fresh page not empty")
	}
	sh.SetWord(0x5000, tag)
	if got := sh.GetWord(0x5000); got != tag {
		t.Fatalf("SetWord after cached-nil lookup = %d, want %d", got, tag)
	}
}

// TestShadowPageFlipSeam pins down the invalidation seam of the trace
// tier's page-keyed no-op verdicts on top of the cached-nil regression
// above: a verdict cached while a page's population is zero is only
// sound until that page flips zero→nonzero, so FlipGen must advance by
// exactly one, with the page no longer PageClean, on exactly those
// transitions and on nothing else.
func TestShadowPageFlipSeam(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{Socket, "attacker:6666"})
	tag2 := st.Of(Source{File, "f"})

	// The verdict sequence: probe the page (population zero, verdict
	// cacheable), then a source lands on it.
	if !sh.PageClean(0x3) || sh.GetWord(0x3000) != Empty {
		t.Fatal("fresh page not clean")
	}
	g := sh.FlipGen()
	sh.SetRange(0x3000, 8, tag)
	if d := sh.FlipGen() - g; d != 1 {
		t.Fatalf("zero->nonzero population moved FlipGen by %d, want 1", d)
	}
	if sh.PageClean(0x3) {
		t.Fatal("tainted page still reports clean")
	}
	if !sh.PageClean(0x2) || !sh.PageClean(0x4) {
		t.Fatal("neighbouring pages report dirty")
	}

	// Writes confined to an already-dirty page move Gen but are not
	// flips: the cached verdict was already dead.
	g, wg := sh.FlipGen(), sh.Gen()
	sh.Set(0x3100, tag2)
	if sh.FlipGen() != g || sh.Gen() == wg {
		t.Fatalf("dirty-page write: FlipGen %d->%d (want unchanged), Gen %d->%d (want moved)",
			g, sh.FlipGen(), wg, sh.Gen())
	}

	// Draining the page back to zero is not a flip either (verdicts can
	// only be invalidated by taint arriving, never by it leaving) — but
	// the *next* zero->nonzero transition must count again, or a
	// verdict cached in the clean window would go stale.
	sh.ClearRange(0x3000, 0x1000)
	if !sh.PageClean(0x3) || sh.FlipGen() != g {
		t.Fatalf("drain misbehaved: clean=%v FlipGen %d->%d", sh.PageClean(0x3), g, sh.FlipGen())
	}
	sh.Set(0x3000, tag)
	if d := sh.FlipGen() - g; d != 1 || sh.PageClean(0x3) {
		t.Fatalf("re-flip: FlipGen moved by %d (want 1), clean=%v", d, sh.PageClean(0x3))
	}

	// A clone (fork) carries the generation, and its flips are its own.
	cl := sh.Clone()
	if cl.FlipGen() != sh.FlipGen() {
		t.Fatalf("clone flip gen %d, want %d", cl.FlipGen(), sh.FlipGen())
	}
	g = sh.FlipGen()
	cl.Set(0x9000, tag)
	if cl.FlipGen() != g+1 || sh.FlipGen() != g || !sh.PageClean(0x9) {
		t.Fatalf("clone flip: clone FlipGen %d (want %d), parent %d (want %d), parent page clean=%v",
			cl.FlipGen(), g+1, sh.FlipGen(), g, sh.PageClean(0x9))
	}

	// Reset (execve) bumps the flip generation wholesale.
	sh.Reset()
	if sh.FlipGen() == g {
		t.Fatal("Reset did not advance FlipGen")
	}
}
