package harrier

import (
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/taint"
)

// This file is the no-op verdict cache of the trace tier: the dynamic
// form of taint-scoped partial instrumentation (PAPERS.md, Thakur
// 2024). Most hot code moves already-tagged data over identically-
// tagged destinations, or never goes near a tag at all, so its taint
// transfer writes nothing. A verdict records that fact for one trace:
// from this shadow and these entry register tags, the transfer is a
// no-op through mop index end. A trace entry that matches a live
// verdict runs the *bare* variant (runTraceBare) — concrete semantics
// only, no shadow lookups, no unions — and hands the rest of the
// program, if any, to the full-transfer loop at the first block
// boundary the verdict does not cover.
//
// A verdict has one of two key forms. Both need the trace's whole
// memory footprint to be expressible as entry-register + displacement
// (the symbolic address domain of summary.go):
//
//   - page-keyed: the footprint resolves to at most verdictKeys shadow
//     pages, all clean. If every page holds no tainted byte, every load
//     reads the Empty tag, so each mop's transfer is checked for no-op-
//     ness against the entry register tags alone (cleanMopsNoop), with
//     zero shadow traffic. The proof is static and value-independent:
//     a loop walking a pointer over clean memory keeps hitting it. It
//     covers the whole program (end = len(mops)) and is stamped with
//     Shadow.FlipGen, which moves exactly when some page's tainted
//     population crosses zero→nonzero (and on Reset). A stale stamp
//     re-checks the pages with Shadow.PageClean: still clean refreshes
//     the stamp, taint on a page drops the verdict before anything runs
//     (stats.Reinstrumented).
//   - value-keyed: the key adds the concrete entry values of the (at
//     most verdictKeys) registers that form the trace's addresses, so
//     every address the run resolves is fixed. It is proved by a
//     *verify* run: the full-transfer loop ends with no register-tag
//     change, no fault and an unchanged Shadow.Gen, which moves on
//     every write that changes a stored tag. It is stamped with that
//     Gen and covers the prefix the verify run executed; re-verifying
//     the same key at the same generation extends end, a new
//     generation replaces the verdict.
//
// Each verified mop leaves the tag state exactly as it found it, so by
// induction the entry tags stay valid for the whole covered prefix —
// which is what makes a verdict sound for traces, whose side exits and
// budget exits run prefixes, and for a mop that faults inside a bare
// run. The shadow's own counters are the only invalidation source:
// every tag that arrives on a clean page, whatever wrote it (a guest
// store, a taint-source syscall, a fork relative's copy-on-write), goes
// through the shadow's write path and moves FlipGen and Gen before the
// writer regains control.
const (
	// verdictWays is how many verdicts (distinct entry states) one
	// trace holds. Sized for loops whose entry register values cycle
	// through more phases than a handful: scheduler slices cutting a
	// loop trace at varying offsets produce exactly that pattern.
	verdictWays = 16
	// verdictKeys caps both the pages a resolved footprint may touch
	// and the address-forming registers a value-keyed verdict keys on.
	verdictKeys = 4
	// cleanMaxStrikes bounds failed page proofs per trace: a trace
	// whose proof keeps failing stops burning probe work.
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

// verdict is one cached no-op proof (see the file comment). keys holds
// the resolved page indices of a page-keyed verdict, or the entry
// values of the trace's base registers of a value-keyed one; slots
// past the live count stay zero, so whole-array compares are exact.
type verdict struct {
	sh    *taint.Shadow
	stamp uint64 // FlipGen (page-keyed) or Gen (value-keyed) at proof time
	end   int32  // first mop the proof does not cover
	nPg   uint8  // page-keyed: live pages in keys
	byVal bool
	keys  [verdictKeys]uint32
	tags  [isa.NumRegs]taint.Tag
}

// verdictCache is the per-trace cache, embedded in a blockTrace. ok is
// decided at compile time (footprint expressible, cache on); byVal adds
// the value-keyed form when the footprint has at most verdictKeys base
// registers, listed in inRegs. Ways fill as entry states prove no-op
// and are replaced round-robin.
type verdictCache struct {
	ok, byVal bool
	announced bool // KindBBClean published (once per trace)
	strikes   int8
	nIn       uint8
	n, rr     uint8 // live ways; round-robin victim when full
	inRegs    [verdictKeys]uint8
	fp        []fpEnt
	ways      [verdictWays]verdict
}

// init arms the cache from the path's symbolic access summary: every
// access widens its base register's footprint interval, and the
// registers behind the intervals become the value-keyed key.
func (vc *verdictCache) init(acc []sumAccess) {
	fp := make([]fpEnt, 0, isa.NumRegs+1)
	var mask uint32
outer:
	for _, a := range acc {
		lo := int64(int32(a.disp))
		hi := lo
		if a.wide {
			hi += 3
		}
		if a.base != sumNoBase {
			mask |= 1 << a.base
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
	vc.fp, vc.ok, vc.byVal = fp, true, true
	for r := uint8(0); r < uint8(isa.NumRegs); r++ {
		if mask&(1<<r) == 0 {
			continue
		}
		if vc.nIn == verdictKeys {
			vc.byVal, vc.nIn = false, 0
			return
		}
		vc.inRegs[vc.nIn] = r
		vc.nIn++
	}
}

// addPage dedups pg into pages[:n], returning the new length and
// false when the distinct-page cap is hit.
func addPage(pages *[verdictKeys]uint32, n int, pg uint32) (int, bool) {
	for k := 0; k < n; k++ {
		if pages[k] == pg {
			return n, true
		}
	}
	if n == verdictKeys {
		return n, false
	}
	pages[n] = pg
	return n + 1, true
}

// resolvePages maps the footprint onto concrete shadow-page indices
// using the entry register values: each interval contributes every
// page from its first byte to its last. An interval wider than the
// page budget, or one wrapping around the address space, fails
// resolution.
func (vc *verdictCache) resolvePages(c *isa.CPU, pages *[verdictKeys]uint32) (int, bool) {
	n := 0
	ok := true
	for i := range vc.fp {
		e := &vc.fp[i]
		var base uint32
		if e.base != sumNoBase {
			base = c.Regs[e.base]
		}
		if e.hi-e.lo >= verdictKeys<<cleanPageShift {
			return 0, false // interval wider than the page budget
		}
		start := base + uint32(e.lo)
		first, last := start>>cleanPageShift, (start+uint32(e.hi-e.lo))>>cleanPageShift
		if last-first >= verdictKeys {
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

// slot returns the way a new verdict goes into: the next free one, or
// the round-robin victim once all are live.
func (vc *verdictCache) slot() *verdict {
	if int(vc.n) < verdictWays {
		vc.n++
		return &vc.ways[vc.n-1]
	}
	w := &vc.ways[vc.rr]
	vc.rr = (vc.rr + 1) % verdictWays
	return w
}

// probe looks the entry state up in the trace's cache, proving a page-
// keyed verdict afresh on a miss. It returns the serving verdict, or
// nil; vals receives the entry values of the value-keyed key, which a
// verify run after a miss installs under.
func (h *Harrier) probe(c *isa.CPU, tr *blockTrace, vals *[verdictKeys]uint32) *verdict {
	vc := &tr.vc
	sh := c.Shadow
	var pages [verdictKeys]uint32
	nPg, pageOK := vc.resolvePages(c, &pages)
	for k := 0; k < int(vc.nIn); k++ {
		vals[k] = c.Regs[vc.inRegs[k]]
	}
	gen := sh.Gen()
	for e := 0; e < int(vc.n); e++ {
		w := &vc.ways[e]
		if w.sh != sh {
			continue
		}
		if w.byVal {
			if w.stamp == gen && w.keys == *vals && w.tags == c.RegTags {
				return w
			}
			continue
		}
		if !pageOK || int(w.nPg) != nPg || w.keys != pages || w.tags != c.RegTags {
			continue
		}
		if w.stamp == sh.FlipGen() || w.stillClean(sh) {
			return w
		}
		// Taint reached the footprint: drop the verdict and fall back
		// to the instrumented trace before anything runs.
		h.stats.Reinstrumented++
		vc.n--
		*w = vc.ways[vc.n]
		vc.ways[vc.n] = verdict{}
		if vc.strikes < cleanMaxStrikes {
			vc.strikes++
		}
		break
	}
	if !pageOK || vc.strikes >= cleanMaxStrikes {
		return nil
	}
	for k := 0; k < nPg; k++ {
		if !sh.PageClean(pages[k]) {
			vc.strikes++
			return nil
		}
	}
	if !h.cleanMopsNoop(tr.mops, &c.RegTags) {
		vc.strikes++
		return nil
	}
	w := vc.slot()
	*w = verdict{
		sh: sh, stamp: sh.FlipGen(), end: int32(len(tr.mops)),
		nPg: uint8(nPg), keys: pages, tags: c.RegTags,
	}
	vc.strikes = 0
	h.stats.CleanDemoted++
	if !vc.announced {
		vc.announced = true
		if h.bus != nil {
			if p := procOf(c); p != nil {
				key := tr.blocks[0].key
				h.bus.Publish(obs.Event{
					Time: p.OS.Clock, Layer: obs.LayerHarrier, Kind: obs.KindBBClean,
					PID: int32(p.PID), Num: uint64(key.addr), Num2: uint64(nPg),
					Str: key.image,
				})
			}
		}
	}
	return w
}

// stillClean re-validates a page-keyed verdict whose FlipGen stamp is
// stale: a page went dirty somewhere, possibly outside the footprint.
// All pages still clean refreshes the stamp.
func (w *verdict) stillClean(sh *taint.Shadow) bool {
	for k := 0; k < int(w.nPg); k++ {
		if !sh.PageClean(w.keys[k]) {
			return false
		}
	}
	w.stamp = sh.FlipGen()
	return true
}

// recordVerify installs the value-keyed verdict a clean verify run
// proved: with the entry values vals at generation gen, the transfer
// wrote nothing through mop end. One verdict per key: re-verifying at
// the same generation only ever extends the covered prefix (a budget
// exit verifies a shorter prefix of the same stationary run), while a
// new generation replaces the stale verdict outright. RegTags are
// still the entry tags (no write changed them), so the post-state
// doubles as the key.
func (vc *verdictCache) recordVerify(c *isa.CPU, gen uint64, vals *[verdictKeys]uint32, end int) {
	for e := 0; e < int(vc.n); e++ {
		w := &vc.ways[e]
		if !w.byVal || w.sh != c.Shadow || w.keys != *vals || w.tags != c.RegTags {
			continue
		}
		if w.stamp != gen {
			w.stamp, w.end = gen, int32(end)
		} else if int32(end) > w.end {
			w.end = int32(end)
		}
		return
	}
	*vc.slot() = verdict{
		sh: c.Shadow, stamp: gen, end: int32(end), byVal: true,
		keys: *vals, tags: c.RegTags,
	}
}

// cleanMopsNoop is the page-keyed proof: every mop's taint transfer
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
