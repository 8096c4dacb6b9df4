package harrier

import (
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/taint"
	"repro/internal/vos"
)

// This file is the uninstrumented variant of the trace tier: the
// *clean tier*, the dynamic form of taint-scoped partial
// instrumentation (PAPERS.md, Thakur 2024). The clean-taint gate in
// trace.go already skips taint transfer for traces whose effect was
// verified stationary — but its verdicts are keyed on the concrete
// *values* of the address-forming registers, so a loop that walks a
// moving pointer misses the gate on every entry and pays the full
// transfer forever, even though it never goes near a tag.
//
// The clean tier closes that hole with a value-INDEPENDENT proof.
// A trace is demotable when its whole memory footprint is expressible
// as entry-register + displacement (the same symbolic-address property
// the gate already relies on; see summary.go). At entry, the footprint
// resolves to a small set of shadow pages; if every one of those pages
// holds no tainted byte, every load in the trace reads the Empty tag —
// so each mop's transfer can be checked for no-op-ness against the
// entry register tags alone, one compare or union per mop, with zero
// shadow traffic:
//
//   - a load into a register is a no-op iff the register is untainted;
//   - a store of a register or immediate is a no-op iff the stored
//     tag is Empty (writing Empty over a clean page changes nothing);
//   - memory-to-memory moves over clean pages move Empty to Empty;
//   - register-to-register moves and unions are no-ops iff the
//     destination already carries the result.
//
// Each verified mop leaves the tag state exactly as it found it, so by
// induction the entry tags stay valid for the whole program and any
// executed *prefix* of it — which is what makes the proof sound for
// traces, whose side exits and budget exits run prefixes. A passing
// proof is cached as a cleanEnt keyed on (shadow, entry register
// tags, resolved page set) and the trace runs UNINSTRUMENTED: no
// shadow lookups, no unions, no per-instruction hooks — concrete
// semantics only (runTraceBare end to end).
//
// Re-instrumentation is the correctness bar. A cached verdict can rot
// only when taint *arrives* at one of its footprint pages, and a page
// can only go dirty through a zero→nonzero population flip — the
// event taint.Shadow.FlipGen counts and Shadow.OnPageFlip reports
// synchronously. Every cleanEnt snapshots the flip generation (and
// Harrier's taint-source epoch, advanced by the vos TaintSource seam
// and by the flip listener); a probe whose snapshot is stale
// re-checks its pages directly via Shadow.PageClean and either
// refreshes or drops the entry (stats.Reinstrumented) — so the first
// trace entry after taint lands is back on the instrumented tier,
// before a single op of it executes. Detections can therefore never
// be lost: the uninstrumented variant only ever runs under a live
// proof that the instrumented variant would have done nothing.
const (
	// cleanMaxPages caps the distinct shadow pages a resolved
	// footprint may touch; an interval wider than the page budget
	// fails resolution and the trace simply stays on its tier.
	cleanMaxPages = 4
	// cleanWays is how many cached verdicts (distinct entry-tag /
	// page-set states) one trace holds.
	cleanWays = 4
	// cleanMaxStrikes bounds failed demotion attempts per trace: a
	// trace whose proof keeps failing stops burning probe work.
	cleanMaxStrikes = 8
	// cleanPageShift converts an address to its shadow-page index;
	// must match taint.Shadow's page geometry (4 KiB).
	cleanPageShift = 12
)

// fpEnt is one base register's slice of a trace's footprint in
// entry-relative form: every byte the trace touches through this base
// lies in [entry value + lo, entry value + hi]. Offsets are signed —
// a displacement is read as int32, so a stack trace touching both
// sides of its entry ESP stays one short interval instead of wrapping
// around the address space. The interval is a conservative cover —
// untouched bytes between two operands are included — which is sound
// (it only ever demands MORE pages be clean) and keeps the footprint
// size O(bases), not O(operands): an unrolled superblock trace with
// hundreds of operands still resolves in at most one interval per
// register plus one for absolute operands.
type fpEnt struct {
	base   uint8 // entry register index, or sumNoBase for absolute
	lo, hi int64
}

// cleanEnt is one cached clean verdict: with this shadow, these entry
// register tags and this resolved page set — all of them clean as of
// the snapshotted flip generation and source epoch — the trace's
// whole taint transfer is a no-op.
type cleanEnt struct {
	sh    *taint.Shadow
	flip  uint64
	src   uint64
	nPg   int
	pages [cleanMaxPages]uint32
	tags  [isa.NumRegs]taint.Tag
}

// cleanState is the demotion state embedded in a blockTrace. ok is
// decided once at compile time (footprint expressible); ways fill as
// entry states prove clean and are replaced round-robin.
type cleanState struct {
	ok        bool
	announced bool // KindBBClean published (once per trace)
	strikes   int8
	n         int // live ways
	rr        int // round-robin victim when full
	fp        []fpEnt
	ways      [cleanWays]cleanEnt
}

// initFootprint arms demotion from the path's symbolic access
// summary: every access widens its base register's interval.
func (cs *cleanState) initFootprint(acc []sumAccess) {
	fp := make([]fpEnt, 0, isa.NumRegs+1)
outer:
	for _, a := range acc {
		lo := int64(int32(a.disp))
		hi := lo
		if a.wide {
			hi += 3
		}
		for i := range fp {
			if fp[i].base == a.base {
				fp[i].lo = min(fp[i].lo, lo)
				fp[i].hi = max(fp[i].hi, hi)
				continue outer
			}
		}
		fp = append(fp, fpEnt{base: a.base, lo: lo, hi: hi})
	}
	cs.fp = fp
	cs.ok = true
}

// addPage dedups pg into pages[:n], returning the new length and
// false when the distinct-page cap is hit.
func addPage(pages *[cleanMaxPages]uint32, n int, pg uint32) (int, bool) {
	for k := 0; k < n; k++ {
		if pages[k] == pg {
			return n, true
		}
	}
	if n == cleanMaxPages {
		return n, false
	}
	pages[n] = pg
	return n + 1, true
}

// resolvePages maps the footprint onto concrete shadow-page indices
// using the entry register values: each interval contributes every
// page from its first byte to its last. An interval wider than the
// page budget, or one wrapping around the address space, fails
// resolution. pages beyond the returned count stay zero, so
// whole-array compares between probes are exact.
func (cs *cleanState) resolvePages(c *isa.CPU, pages *[cleanMaxPages]uint32) (int, bool) {
	n := 0
	ok := true
	for i := range cs.fp {
		e := &cs.fp[i]
		var base uint32
		if e.base != sumNoBase {
			base = c.Regs[e.base]
		}
		if e.hi-e.lo >= cleanMaxPages<<cleanPageShift {
			return 0, false // interval wider than the page budget
		}
		start := base + uint32(e.lo)
		first, last := start>>cleanPageShift, (start+uint32(e.hi-e.lo))>>cleanPageShift
		if last-first >= cleanMaxPages {
			return 0, false // too many pages, or wraps around the address space
		}
		for pg := first; ; pg++ {
			if n, ok = addPage(pages, n, pg); !ok {
				return 0, false
			}
			if pg == last {
				break
			}
		}
	}
	return n, true
}

// lookup probes the cached ways for (sh, entry tags, page set). A hit
// with fresh epochs returns immediately; a hit with stale epochs
// re-checks the pages directly — still clean refreshes the snapshot,
// taint on a page drops the way (the re-instrumentation event).
// Returns whether a valid way matched.
func (cs *cleanState) lookup(h *Harrier, c *isa.CPU, sh *taint.Shadow, pages *[cleanMaxPages]uint32, nPg int) bool {
	for e := 0; e < cs.n; e++ {
		w := &cs.ways[e]
		if w.sh != sh || w.nPg != nPg || w.pages != *pages || w.tags != c.RegTags {
			continue
		}
		if w.flip == sh.FlipGen() && w.src == h.cleanEpoch {
			return true
		}
		for k := 0; k < nPg; k++ {
			if !sh.PageClean(pages[k]) {
				// Taint reached the footprint: drop the way and fall
				// back to the instrumented tier before anything runs.
				h.stats.Reinstrumented++
				cs.n--
				cs.ways[e] = cs.ways[cs.n]
				cs.ways[cs.n] = cleanEnt{}
				if cs.rr >= cleanWays {
					cs.rr = 0
				}
				if cs.strikes < cleanMaxStrikes {
					cs.strikes++
				}
				return false
			}
		}
		w.flip, w.src = sh.FlipGen(), h.cleanEpoch
		return true
	}
	return false
}

// install caches a fresh verdict, publishing the demotion event the
// first time this trace ever goes clean.
func (cs *cleanState) install(h *Harrier, c *isa.CPU, sh *taint.Shadow, pages *[cleanMaxPages]uint32, nPg int, key bbKey) {
	var w *cleanEnt
	if cs.n < cleanWays {
		w = &cs.ways[cs.n]
		cs.n++
	} else {
		w = &cs.ways[cs.rr]
		cs.rr = (cs.rr + 1) % cleanWays
	}
	*w = cleanEnt{
		sh: sh, flip: sh.FlipGen(), src: h.cleanEpoch,
		nPg: nPg, pages: *pages, tags: c.RegTags,
	}
	cs.strikes = 0
	h.stats.CleanDemoted++
	if !cs.announced {
		cs.announced = true
		if h.bus != nil {
			if p := procOf(c); p != nil {
				h.bus.Publish(obs.Event{
					Time: p.OS.Clock, Layer: obs.LayerHarrier, Kind: obs.KindBBClean,
					PID: int32(p.PID), Num: uint64(key.addr), Num2: uint64(nPg),
					Str: key.image,
				})
			}
		}
	}
}

// cleanProbeTrace decides whether this trace entry runs on the clean
// tier: a cached-way hit, or a fresh proof over the mop program.
func (h *Harrier) cleanProbeTrace(c *isa.CPU, tr *blockTrace) bool {
	cs := &tr.clean
	sh := c.Shadow
	var pages [cleanMaxPages]uint32
	nPg, ok := cs.resolvePages(c, &pages)
	if !ok {
		return false
	}
	if cs.lookup(h, c, sh, &pages, nPg) {
		return true
	}
	if cs.strikes >= cleanMaxStrikes {
		return false
	}
	for k := 0; k < nPg; k++ {
		if !sh.PageClean(pages[k]) {
			cs.strikes++
			return false
		}
	}
	if !h.cleanMopsNoop(tr.mops, &c.RegTags) {
		cs.strikes++
		return false
	}
	cs.install(h, c, sh, &pages, nPg, tr.blocks[0].key)
	return true
}

// cleanMopsNoop is the trace-side proof: every mop's taint transfer
// (see runTraceTaint) checked for no-op-ness against the entry tags
// under the clean-footprint assumption. Because the check is per
// instruction in program order and value-independent, it holds for
// every executed prefix — side exits, budget exits and faults
// included.
func (h *Harrier) cleanMopsNoop(mops []mop, tags *[isa.NumRegs]taint.Tag) bool {
	st := h.Store
	for i := range mops {
		op := &mops[i]
		switch op.code {
		case mBBEnter, mBr, mCmpRR, mCmpRI, mCmpRM, mCmpMR, mCmpMI, mCmpMM:
			// no taint effect
		case mMovRR, mMovbRR:
			if tags[op.reg] != tags[op.reg2] {
				return false
			}
		case mMovRI, mMovbRI:
			if tags[op.reg] != op.tag {
				return false
			}
		case mMovRM, mMovbRM, mPopR:
			if tags[op.reg] != taint.Empty {
				return false
			}
		case mMovMR, mMovbMR, mAluMR, mPushR:
			if tags[op.reg] != taint.Empty {
				return false
			}
		case mMovMI, mMovbMI, mAluMI, mPushI:
			// stores a compile-time BINARY tag: never clean
			return false
		case mMovMM, mMovbMM, mAluMM, mPushM, mAluRM:
			// loads union/store Empty over clean pages: no-op
		case mLea:
			t := op.tag
			if op.base2 != traceNoBase {
				t = st.Union(t, tags[op.base2])
			}
			if tags[op.reg] != t {
				return false
			}
		case mZeroR:
			if tags[op.reg] != taint.Empty {
				return false
			}
		case mAluRR:
			if tags[op.reg] != st.Union(tags[op.reg], tags[op.reg2]) {
				return false
			}
		case mAluRI:
			if tags[op.reg] != st.Union(tags[op.reg], op.tag) {
				return false
			}
		case mUnR:
			if isa.Op(op.aop) == isa.INC || isa.Op(op.aop) == isa.DEC {
				if tags[op.reg] != st.Union(tags[op.reg], op.tag) {
					return false
				}
			}
		case mUnM:
			if isa.Op(op.aop) == isa.INC || isa.Op(op.aop) == isa.DEC {
				return false // unions a BINARY tag into memory
			}
			// NOT/NEG re-store the loaded tag: Empty over a clean page
		case mCpuid:
			for _, r := range [...]uint8{uint8(isa.EAX), uint8(isa.EBX), uint8(isa.ECX), uint8(isa.EDX)} {
				if tags[r] != h.hwTag {
					return false
				}
			}
		case mRdtsc:
			if tags[isa.EAX] != h.hwTag || tags[isa.EDX] != h.hwTag {
				return false
			}
		default:
			return false // unknown mop: never demote
		}
	}
	return true
}

// TaintSource implements vos.TaintSourceMonitor: the kernel is about
// to deposit external data into guest memory. Advancing the source
// epoch forces every cached clean verdict to re-validate its pages on
// its next probe — defense in depth around the shadow's own page-flip
// seam, which fires when the deposit is actually tagged.
func (h *Harrier) TaintSource(p *vos.Process, sc *vos.SyscallCtx) {
	h.cleanEpoch++
}

// onPageFlip is the taint.Shadow listener: a page just went
// zero→nonzero, so any clean verdict whose footprint includes it is
// stale. The epoch bump invalidates lazily — the next probe of every
// entry re-checks its pages — which flushes affected entries strictly
// before the next block boundary, since probes happen at block entry.
func (h *Harrier) onPageFlip(idx uint32) {
	h.cleanEpoch++
}
