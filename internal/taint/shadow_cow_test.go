package taint

import (
	"fmt"
	"math/rand"
	"testing"
)

// The copy-on-write fork oracle: random interleavings of writes,
// reads, Clone and Reset across a parent and its fork relatives,
// checked against a deep-copy reference. Pages shared by Clone are
// copied on the first write, which must be invisible: every byte tag,
// TagBytes, PageClean and FlipGen match a model that copies everything
// eagerly.

const (
	cowBase   = uint32(0x10000)
	cowWindow = 3 * pageSize
	cowSpaces = 4 // live shadows: the parent and up to three relatives
)

// cowRef is the deep-copy reference: per-byte tags plus the page
// populations and flip generation the real shadow maintains
// incrementally.
type cowRef struct {
	tags    map[uint32]Tag
	pop     map[uint32]int
	flipGen uint64
}

func newCowRef() *cowRef {
	return &cowRef{tags: map[uint32]Tag{}, pop: map[uint32]int{}}
}

func (r *cowRef) set(addr uint32, t Tag) {
	old := r.tags[addr]
	if old == t {
		return
	}
	idx := addr >> pageShift
	switch {
	case old == Empty:
		r.pop[idx]++
		if r.pop[idx] == 1 {
			r.flipGen++
		}
	case t == Empty:
		r.pop[idx]--
	}
	if t == Empty {
		delete(r.tags, addr)
	} else {
		r.tags[addr] = t
	}
}

func (r *cowRef) setRange(addr, n uint32, t Tag) {
	for i := uint32(0); i < n; i++ {
		r.set(addr+i, t)
	}
}

func (r *cowRef) copyTags(dst, src, n uint32) {
	if dst == src || n == 0 {
		return
	}
	if dst < src {
		for i := uint32(0); i < n; i++ {
			r.set(dst+i, r.tags[src+i])
		}
		return
	}
	for i := n; i > 0; i-- {
		r.set(dst+i-1, r.tags[src+i-1])
	}
}

func (r *cowRef) tagBytes() int64 {
	n := 0
	for _, c := range r.pop {
		n += c
	}
	return int64(n)
}

func (r *cowRef) clone() *cowRef {
	out := newCowRef()
	for a, t := range r.tags {
		out.tags[a] = t
	}
	for i, c := range r.pop {
		out.pop[i] = c
	}
	out.flipGen = r.flipGen
	return out
}

func (r *cowRef) reset() {
	r.tags = map[uint32]Tag{}
	r.pop = map[uint32]int{}
	r.flipGen++
}

// Shadow COW op kinds.
const (
	copSet = iota
	copSetWord
	copSetRange
	copCopy
	copGetWord
	copClone
	copReset
	copGet
	copKinds
)

// cowOp is one step: kind applied to shadow space at addr. For writes
// arg's low nibble picks the tag from the palette; SetRange takes its
// length from the bits above, SetWord goes unaligned when bit 8 is
// set, and Copy derives its source and length from arg.
type cowOp struct {
	kind  uint8
	space int
	addr  uint32
	arg   uint32
}

// decodeCowOps turns fuzz bytes into ops, five bytes per op.
func decodeCowOps(data []byte) []cowOp {
	var ops []cowOp
	for ; len(data) >= 5; data = data[5:] {
		ops = append(ops, cowOp{
			kind:  data[0] % copKinds,
			space: int(data[0]/copKinds) % cowSpaces,
			addr:  cowBase + (uint32(data[1])<<8|uint32(data[2]))*3%cowWindow,
			arg:   uint32(data[3])<<8 | uint32(data[4]),
		})
	}
	return ops
}

// randomCowOps draws n ops from seed.
func randomCowOps(seed int64, n int) []cowOp {
	rr := rand.New(rand.NewSource(seed))
	ops := make([]cowOp, n)
	for i := range ops {
		ops[i] = cowOp{
			kind:  uint8(rr.Intn(copKinds)),
			space: rr.Intn(cowSpaces),
			addr:  cowBase + uint32(rr.Intn(cowWindow)),
			arg:   uint32(rr.Intn(1 << 16)),
		}
	}
	return ops
}

type cowWorld struct {
	t    *testing.T
	tags []Tag
	sh   []*Shadow
	ref  []*cowRef
}

func newCowWorld(t *testing.T) *cowWorld {
	st := NewStore()
	w := &cowWorld{t: t, tags: tagPalette(st)}
	w.add(NewShadow(st), newCowRef())
	return w
}

func (w *cowWorld) add(sh *Shadow, ref *cowRef) {
	w.sh = append(w.sh, sh)
	w.ref = append(w.ref, ref)
}

// span clamps a length so the access stays inside the window.
func span(addr, n uint32) uint32 {
	if end := cowBase + cowWindow; addr+n > end {
		return end - addr
	}
	return n
}

func (w *cowWorld) apply(step int, op cowOp) {
	i := op.space % len(w.sh)
	sh, ref := w.sh[i], w.ref[i]
	tag := w.tags[(op.arg&0xF)%uint32(len(w.tags))]
	where := fmt.Sprintf("step %d (op %d on shadow %d at %#x)", step, op.kind, i, op.addr)
	switch op.kind {
	case copSet:
		sh.Set(op.addr, tag)
		ref.set(op.addr, tag)
	case copSetWord:
		a := op.addr &^ 3
		if op.arg&0x100 != 0 {
			a = op.addr // unaligned
		}
		n := span(a, 4)
		if n == 4 {
			sh.SetWord(a, tag)
		} else {
			sh.SetRange(a, n, tag)
		}
		ref.setRange(a, n, tag)
	case copSetRange:
		n := span(op.addr, op.arg>>4%(2*pageSize+1))
		sh.SetRange(op.addr, n, tag)
		ref.setRange(op.addr, n, tag)
	case copCopy:
		src := cowBase + op.arg*7%cowWindow
		n := span(op.addr, span(src, op.arg%300))
		sh.Copy(op.addr, src, n)
		ref.copyTags(op.addr, src, n)
	case copGetWord:
		a := span(op.addr, 4)
		if got, want := sh.GetRange(op.addr, a), w.refRange(ref, op.addr, a); got != want {
			w.t.Fatalf("%s: GetRange = %d, want %d", where, got, want)
		}
		if a == 4 {
			if got, want := sh.GetWord(op.addr), w.refRange(ref, op.addr, 4); got != want {
				w.t.Fatalf("%s: GetWord = %d, want %d", where, got, want)
			}
		}
	case copGet:
		if got, want := sh.Get(op.addr), ref.tags[op.addr]; got != want {
			w.t.Fatalf("%s: Get = %d, want %d", where, got, want)
		}
	case copClone:
		if len(w.sh) == cowSpaces {
			return
		}
		// No check here: its reads would refill the TLB and hide a
		// Clone that leaves the parent's entry writable.
		w.add(sh.Clone(), ref.clone())
	case copReset:
		w.check(where+" before reset", i)
		sh.Reset()
		ref.reset()
	}
	w.checkCounters(where, i)
}

func (w *cowWorld) refRange(ref *cowRef, addr, n uint32) Tag {
	st := w.sh[0].Store()
	out := Empty
	for k := uint32(0); k < n; k++ {
		out = st.Union(out, ref.tags[addr+k])
	}
	return out
}

// checkCounters compares the cheap per-step observables of shadow i:
// its population, its flip generation (so every step moves FlipGen by
// exactly the reference's count of zero→nonzero page flips) and every
// window page's PageClean verdict (so the flips land on the right
// pages). PageClean bypasses the TLB, so the check cannot mask a
// stale entry.
func (w *cowWorld) checkCounters(where string, i int) {
	w.t.Helper()
	sh, ref := w.sh[i], w.ref[i]
	if got, want := sh.TagBytes(), ref.tagBytes(); got != want {
		w.t.Fatalf("%s: TagBytes = %d, want %d", where, got, want)
	}
	if got, want := sh.FlipGen(), ref.flipGen; got != want {
		w.t.Fatalf("%s: FlipGen = %d, want %d", where, got, want)
	}
	for idx := cowBase >> pageShift; idx < (cowBase+cowWindow)>>pageShift; idx++ {
		if got, want := sh.PageClean(idx), ref.pop[idx] == 0; got != want {
			w.t.Fatalf("%s: shadow %d PageClean(%#x) = %v, want %v", where, i, idx, got, want)
		}
	}
}

// check compares every byte tag and page verdict of shadow i.
func (w *cowWorld) check(where string, i int) {
	w.t.Helper()
	sh, ref := w.sh[i], w.ref[i]
	for a := cowBase; a < cowBase+cowWindow; a++ {
		if got, want := sh.Get(a), ref.tags[a]; got != want {
			w.t.Fatalf("%s: shadow %d byte %#x = %d, want %d", where, i, a, got, want)
		}
	}
	w.checkCounters(where, i)
}

func runShadowCOW(t *testing.T, ops []cowOp) {
	w := newCowWorld(t)
	for step, op := range ops {
		w.apply(step, op)
	}
	for i := range w.sh {
		w.check("final", i)
	}
}

// TestShadowCOWDifferential runs hand-written fork histories plus
// seeded random interleavings against the deep-copy reference.
func TestShadowCOWDifferential(t *testing.T) {
	const pg = pageSize
	cases := []struct {
		name string
		ops  []cowOp
	}{
		{
			// A page allocated but clean at fork time (tainted, then
			// drained) flips on each side's first post-fork write: the
			// copy carries pop 0, and only the writer's FlipGen moves.
			name: "flip on first post-fork write",
			ops: []cowOp{
				{kind: copSet, space: 0, addr: cowBase + 8, arg: 1},
				{kind: copSet, space: 0, addr: cowBase + 8, arg: 0},
				{kind: copClone, space: 0},
				{kind: copSet, space: 1, addr: cowBase + 16, arg: 2},
				{kind: copGet, space: 0, addr: cowBase + 16},
				{kind: copSetWord, space: 0, addr: cowBase + 32, arg: 3},
			},
		},
		{
			// The parent's TLB holds the page writable when it forks:
			// its next write must still copy, leaving the child's view.
			name: "parent writes through a hot TLB entry",
			ops: []cowOp{
				{kind: copSetWord, space: 0, addr: cowBase + pg, arg: 1},
				{kind: copClone, space: 0},
				{kind: copSetWord, space: 0, addr: cowBase + pg, arg: 2},
				{kind: copGetWord, space: 1, addr: cowBase + pg},
				{kind: copGetWord, space: 0, addr: cowBase + pg},
			},
		},
		{
			// A read fills the TLB with a shared page; the write that
			// follows on the same page must not reuse that entry.
			name: "read then write a shared page",
			ops: []cowOp{
				{kind: copSetRange, space: 0, addr: cowBase, arg: 64<<4 | 5},
				{kind: copClone, space: 0},
				{kind: copGetWord, space: 1, addr: cowBase + 4},
				{kind: copSet, space: 1, addr: cowBase + 5, arg: 1},
				{kind: copGetWord, space: 0, addr: cowBase + 4},
				{kind: copGet, space: 1, addr: cowBase + 5},
			},
		},
		{
			// A byte-mode page is copied with its byte array, not
			// aliased to the original.
			name: "byte-mode page copy",
			ops: []cowOp{
				{kind: copSet, space: 0, addr: cowBase + 2*pg + 1, arg: 1},
				{kind: copSet, space: 0, addr: cowBase + 2*pg + 2, arg: 2},
				{kind: copClone, space: 0},
				{kind: copSet, space: 0, addr: cowBase + 2*pg + 1, arg: 3},
				{kind: copSet, space: 1, addr: cowBase + 2*pg + 3, arg: 4},
				{kind: copGet, space: 1, addr: cowBase + 2*pg + 1},
			},
		},
		{
			// fork → exec: the child drops every shared page without
			// copying and the parent keeps its own view.
			name: "fork then reset",
			ops: []cowOp{
				{kind: copSetRange, space: 0, addr: cowBase, arg: (2*pg)<<4 | 1},
				{kind: copClone, space: 0},
				{kind: copReset, space: 1},
				{kind: copSet, space: 1, addr: cowBase, arg: 2},
				{kind: copSetWord, space: 0, addr: cowBase + 4, arg: 3},
			},
		},
		{
			name: "copy across shared pages",
			ops: []cowOp{
				{kind: copSetRange, space: 0, addr: cowBase + pg - 40, arg: 80<<4 | 1},
				{kind: copClone, space: 0},
				{kind: copClone, space: 1},
				{kind: copCopy, space: 2, addr: cowBase + 2*pg - 20, arg: 299},
				{kind: copCopy, space: 0, addr: cowBase + 10, arg: 600},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runShadowCOW(t, c.ops) })
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("random/%d", seed), func(t *testing.T) {
			runShadowCOW(t, randomCowOps(seed, 400))
		})
	}
}

// FuzzShadowCOW is the fuzz form of the oracle: five bytes per op.
func FuzzShadowCOW(f *testing.F) {
	f.Add([]byte{copSet, 0, 8, 0, 1, copClone, 0, 0, 0, 0, copSet + copKinds, 0, 16, 0, 2})
	f.Add([]byte{copSetRange, 0, 0, 4, 1, copClone, 0, 0, 0, 0, copReset + copKinds, 0, 0, 0, 0, copSetWord, 0, 4, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		runShadowCOW(t, decodeCowOps(data))
	})
}
