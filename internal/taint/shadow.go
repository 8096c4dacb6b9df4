package taint

import "maps"

// Shadow is a sparse tag map mirroring a guest address space. Pages
// are allocated on first tainted write; reading an unallocated page
// yields Empty. This matches Harrier's design where the data
// structures tracking taint grow with the footprint of tainted data
// (paper §7.3.1, §9).
//
// Representation (the §9 fast path): a page starts in *word mode*,
// one Tag per aligned 32-bit word, so the dominant accesses — aligned
// GetWord/SetWord from 32-bit loads and stores — are a single page
// lookup plus one array index. Word mode maintains the invariant that
// all four bytes of a word carry the word's tag. The first write that
// would break that invariant (a MOVB with a differing tag, an
// unaligned store) degrades the page to *byte mode*, which keeps a
// full per-byte tag array and stays byte-granular for the page's
// lifetime. Reads never degrade a page. The two representations are
// observationally identical; see DESIGN.md "Shadow memory fast
// paths".
//
// A single-entry page cache (a software TLB) short-circuits the page
// map for the overwhelmingly local access streams the benchmarks
// show; it is invalidated whenever the page table is replaced
// (Reset) and never shared with Clones.
//
// Clone (fork) is copy-on-write: parent and child share every page
// until one of them first writes it, and that write gives the writer
// its own copy, carrying the page's tags, mode and population.
type Shadow struct {
	store *Store
	pages map[uint32]*shadowPage

	// Software TLB: the last page resolution, including negative
	// results — an untainted working set resolves every access to
	// "unallocated", and caching that verdict keeps the hot path off
	// the page map entirely. pageAlloc refreshes the entry when it
	// materializes a negatively-cached page. tlbIdx is the cached
	// index for reads; tlbWIdx is the same index when the entry may
	// also serve writes — the cached page is absent or owned by this
	// shadow — so the write fast path needs no ownership test of its
	// own. noPage in either marks it empty.
	tlbIdx  uint32
	tlbWIdx uint32
	tlbPage *shadowPage

	// TLB effectiveness counters (hits = probes - misses). Plain
	// increments on the page-resolution path; read via TLBStats.
	tlbProbes uint64
	tlbMisses uint64

	// Taint-state accounting for the no-op verdict cache (see
	// harrier/cleantier.go). gen increments on every write that actually
	// changes a stored tag — no-op writes (storing the tag already
	// present) leave it untouched, so an unchanged gen across a window
	// proves the shadow's observable state is identical. pop counts
	// tainted (non-Empty) bytes; it is zero exactly while nothing in
	// the address space carries a source, and page degradation
	// preserves it (a word-mode tag counts as its four bytes).
	gen uint64
	pop int64

	// flipGen advances every time any page's tainted-byte population
	// crosses zero→nonzero — the only event that can turn a
	// previously-clean footprint dirty — generalizing the negative-TLB
	// invalidation. A cached "these pages are clean" verdict keyed on
	// an unchanged flipGen needs no per-page re-probe.
	flipGen uint64
}

const (
	noPage    = ^uint32(0) // no page has this index (indices are 20 bits)
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
	pageWords = pageSize / 4
)

// shadowPage holds the tags of one 4 KiB page. words is authoritative
// while bytes == nil (word mode); after degrade() the bytes array is
// authoritative and words is dead.
type shadowPage struct {
	words [pageWords]Tag
	bytes *[pageSize]Tag

	// pop counts the page's tainted bytes (the per-page slice of
	// Shadow.pop): it lets writes detect the zero→nonzero flip locally
	// and PageClean answer per page.
	pop int32

	// owner is the shadow that may write the page in place; a page
	// shared between fork relatives has no owner.
	owner *Shadow
}

// degrade switches the page to byte mode, expanding each word tag to
// its four bytes. Idempotent.
func (p *shadowPage) degrade() {
	if p.bytes != nil {
		return
	}
	b := new([pageSize]Tag)
	for w, t := range p.words {
		if t == Empty {
			continue
		}
		o := w << 2
		b[o], b[o+1], b[o+2], b[o+3] = t, t, t, t
	}
	p.bytes = b
}

// getByte returns the tag of the byte at page offset off.
func (p *shadowPage) getByte(off uint32) Tag {
	if p.bytes != nil {
		return p.bytes[off]
	}
	return p.words[off>>2]
}

// setByte assigns the tag of the byte at page offset off, degrading
// the page only if the write actually breaks word uniformity. Actual
// tag changes are charged to sh's generation/population counters.
func (p *shadowPage) setByte(sh *Shadow, off uint32, t Tag) {
	if p.bytes == nil {
		if p.words[off>>2] == t {
			return // word already carries t; no-op, page stays in word mode
		}
		p.degrade()
	}
	old := p.bytes[off]
	if old == t {
		return
	}
	sh.gen++
	if old == Empty {
		sh.pop++
		p.pop++
		if p.pop == 1 {
			sh.flipGen++
		}
	} else if t == Empty {
		sh.pop--
		p.pop--
	}
	p.bytes[off] = t
}

// setWordSlot assigns the uniform tag of word slot w on a word-mode
// page, with generation/population accounting (one word = 4 bytes).
func (p *shadowPage) setWordSlot(sh *Shadow, w uint32, t Tag) {
	old := p.words[w]
	if old == t {
		return
	}
	sh.gen++
	if old == Empty {
		sh.pop += 4
		p.pop += 4
		if p.pop == 4 {
			sh.flipGen++
		}
	} else if t == Empty {
		sh.pop -= 4
		p.pop -= 4
	}
	p.words[w] = t
}

// NewShadow returns an empty shadow map backed by the given store.
func NewShadow(store *Store) *Shadow {
	return &Shadow{store: store, pages: make(map[uint32]*shadowPage), tlbIdx: noPage, tlbWIdx: noPage}
}

// Store returns the tag store this shadow resolves tags against.
func (sh *Shadow) Store() *Store { return sh.store }

// page resolves a page index through the TLB, returning nil when the
// page is unallocated. A refill here leaves the entry read-only, and
// the first write through it upgrades it out of line (wpageMiss):
// testing ownership here would stop Get from inlining.
func (sh *Shadow) page(idx uint32) *shadowPage {
	sh.tlbProbes++
	if sh.tlbIdx == idx {
		return sh.tlbPage
	}
	sh.tlbMisses++
	p := sh.pages[idx]
	sh.tlbIdx, sh.tlbWIdx, sh.tlbPage = idx, noPage, p
	return p
}

// wpage resolves a page index for a write, returning nil when the
// page is unallocated. A page still shared with a fork relative is
// replaced by a private copy first, so the result is always one this
// shadow owns.
func (sh *Shadow) wpage(idx uint32) *shadowPage {
	sh.tlbProbes++
	if sh.tlbWIdx == idx {
		return sh.tlbPage
	}
	return sh.wpageMiss(idx)
}

// wpageMiss is wpage's TLB refill, including the copy of a shared
// page; kept out of line so wpage's probe inlines into every writer.
//
//go:noinline
func (sh *Shadow) wpageMiss(idx uint32) *shadowPage {
	if sh.tlbIdx == idx && (sh.tlbPage == nil || sh.tlbPage.owner == sh) {
		// A read filled the entry: the page is absent or already ours,
		// so the entry may serve writes as it stands.
		sh.tlbWIdx = idx
		return sh.tlbPage
	}
	sh.tlbMisses++
	p := sh.pages[idx]
	if p != nil && p.owner != sh {
		cp := &shadowPage{words: p.words, pop: p.pop, owner: sh}
		if p.bytes != nil {
			b := *p.bytes
			cp.bytes = &b
		}
		p = cp
		sh.pages[idx] = p
	}
	sh.tlbIdx, sh.tlbWIdx, sh.tlbPage = idx, idx, p
	return p
}

// TLBStats reports page-cache effectiveness: total page resolutions
// and how many fell through to the page map (hits = probes - misses).
func (sh *Shadow) TLBStats() (probes, misses uint64) {
	return sh.tlbProbes, sh.tlbMisses
}

// pageAlloc allocates the page at an index wpage just reported
// unallocated.
func (sh *Shadow) pageAlloc(idx uint32) *shadowPage {
	p := &shadowPage{owner: sh}
	sh.pages[idx] = p
	sh.tlbIdx, sh.tlbWIdx, sh.tlbPage = idx, idx, p
	return p
}

// Get returns the tag of the byte at addr.
func (sh *Shadow) Get(addr uint32) Tag {
	p := sh.page(addr >> pageShift)
	if p == nil {
		return Empty
	}
	return p.getByte(addr & pageMask)
}

// Set assigns the tag of the byte at addr. Setting Empty on an
// unallocated page is a no-op (no page is created).
func (sh *Shadow) Set(addr uint32, t Tag) {
	p := sh.wpage(addr >> pageShift)
	if p == nil {
		if t == Empty {
			return
		}
		p = sh.pageAlloc(addr >> pageShift)
	}
	p.setByte(sh, addr&pageMask, t)
}

// GetWord returns the union of the four byte tags at addr (the tag of
// a 32-bit load). The aligned word-mode case — the hot path — is one
// page lookup and one array index.
func (sh *Shadow) GetWord(addr uint32) Tag {
	off := addr & pageMask
	if off > pageSize-4 {
		return sh.GetRange(addr, 4) // crosses a page boundary
	}
	p := sh.page(addr >> pageShift)
	if p == nil {
		return Empty
	}
	if p.bytes == nil {
		if off&3 == 0 {
			return p.words[off>>2]
		}
		// Unaligned, word mode: the four bytes span two uniform words.
		return sh.store.Union(p.words[off>>2], p.words[(off+3)>>2])
	}
	b := p.bytes
	return sh.store.Union4(b[off], b[off+1], b[off+2], b[off+3])
}

// SetWord assigns t to the four bytes at addr (the tag of a 32-bit
// store). The aligned word-mode case is one page lookup and one array
// store; aligned stores never degrade a page.
func (sh *Shadow) SetWord(addr uint32, t Tag) {
	off := addr & pageMask
	if off > pageSize-4 {
		sh.SetRange(addr, 4, t) // crosses a page boundary
		return
	}
	p := sh.wpage(addr >> pageShift)
	if p == nil {
		if t == Empty {
			return
		}
		p = sh.pageAlloc(addr >> pageShift)
	}
	if p.bytes == nil && off&3 == 0 {
		p.setWordSlot(sh, off>>2, t)
		return
	}
	p.setByte(sh, off, t)
	p.setByte(sh, off+1, t)
	p.setByte(sh, off+2, t)
	p.setByte(sh, off+3, t)
}

// SetRange assigns the same tag to n bytes starting at addr,
// operating page-at-a-time: an Empty tag skips unallocated pages
// entirely, and word-mode pages take the interior as word fills.
func (sh *Shadow) SetRange(addr, n uint32, t Tag) {
	for n > 0 {
		idx := addr >> pageShift
		off := addr & pageMask
		chunk := pageSize - off
		if chunk > n {
			chunk = n
		}
		p := sh.wpage(idx)
		if p == nil {
			if t != Empty {
				p = sh.pageAlloc(idx)
				p.setRange(sh, off, chunk, t)
			}
		} else {
			p.setRange(sh, off, chunk, t)
		}
		addr += chunk
		n -= chunk
	}
}

// setRange assigns t to chunk bytes at page offset off (off+chunk <=
// pageSize). Word-mode pages fill whole words for the aligned
// interior and fall back to setByte (degrade-if-needed) at the edges.
func (p *shadowPage) setRange(sh *Shadow, off, chunk uint32, t Tag) {
	end := off + chunk
	if p.bytes == nil {
		for off < end && off&3 != 0 {
			p.setByte(sh, off, t)
			if p.bytes != nil {
				break // degraded mid-edge; finish in byte mode below
			}
			off++
		}
		if p.bytes == nil {
			for off+4 <= end {
				p.setWordSlot(sh, off>>2, t)
				off += 4
			}
			for off < end {
				p.setByte(sh, off, t)
				if p.bytes != nil {
					break
				}
				off++
			}
		}
	}
	if p.bytes != nil {
		for ; off < end; off++ {
			p.setByte(sh, off, t)
		}
	}
}

// GetRange returns the union of the tags of n bytes starting at addr,
// operating page-at-a-time: unallocated pages contribute nothing, and
// word-mode pages union one tag per touched word.
func (sh *Shadow) GetRange(addr, n uint32) Tag {
	out := Empty
	for n > 0 {
		idx := addr >> pageShift
		off := addr & pageMask
		chunk := pageSize - off
		if chunk > n {
			chunk = n
		}
		if p := sh.page(idx); p != nil {
			if p.bytes == nil {
				for w, last := off>>2, (off+chunk-1)>>2; w <= last; w++ {
					out = sh.store.Union(out, p.words[w])
				}
			} else {
				for i := uint32(0); i < chunk; i++ {
					out = sh.store.Union(out, p.bytes[off+i])
				}
			}
		}
		addr += chunk
		n -= chunk
	}
	return out
}

// Copy copies n byte tags from src to dst, preserving per-byte
// precision (used when guest memory is copied wholesale, e.g. fork).
// Overlapping ranges behave like memmove.
func (sh *Shadow) Copy(dst, src, n uint32) {
	if dst == src || n == 0 {
		return
	}
	if dst < src {
		for i := uint32(0); i < n; i++ {
			sh.Set(dst+i, sh.Get(src+i))
		}
		return
	}
	for i := n; i > 0; i-- {
		sh.Set(dst+i-1, sh.Get(src+i-1))
	}
}

// Clone returns a copy-on-write copy of the shadow map sharing the
// same store. Used by fork(): the child inherits the parent's taint
// state. Both sides share every page, which now has no owner, and the
// parent's TLB entry stops serving writes; the first write either side
// makes to a shared page copies it. The clone starts with a cold page
// cache.
func (sh *Shadow) Clone() *Shadow {
	for _, p := range sh.pages {
		if p.owner == sh {
			p.owner = nil
		}
	}
	sh.tlbWIdx = noPage
	return &Shadow{
		store: sh.store, pages: maps.Clone(sh.pages),
		tlbIdx: noPage, tlbWIdx: noPage,
		gen: sh.gen, pop: sh.pop, flipGen: sh.flipGen,
	}
}

// ClearRange resets n bytes starting at addr to Empty. Unallocated
// pages are skipped without being probed per byte.
func (sh *Shadow) ClearRange(addr, n uint32) {
	sh.SetRange(addr, n, Empty)
}

// Reset drops all pages, returning the shadow to the untainted state.
// Used by execve(), which replaces the address space. Pages still
// shared with a fork relative are dropped without being copied.
func (sh *Shadow) Reset() {
	sh.pages = make(map[uint32]*shadowPage)
	sh.tlbIdx, sh.tlbWIdx, sh.tlbPage = noPage, noPage, nil
	sh.gen++ // the observable tag state changed wholesale
	sh.pop = 0
	// Belt and braces: dropping every page can only make pages cleaner,
	// but bumping the flip generation forces cached clean verdicts to
	// re-probe rather than reason about the wholesale replacement.
	sh.flipGen++
}

// Gen returns the shadow's write generation: it advances exactly when
// a write changes a stored tag, so two equal Gen readings bracket a
// window in which the shadow's observable state did not change. The
// value-keyed no-op verdicts of the trace tier are stamped with it.
func (sh *Shadow) Gen() uint64 { return sh.gen }

// TagBytes returns the live tag population: the number of bytes
// currently carrying a non-Empty tag.
func (sh *Shadow) TagBytes() int64 { return sh.pop }

// Taintless reports whether no byte in the address space carries a
// source — trivially true before the first tagged write.
func (sh *Shadow) Taintless() bool { return sh.pop == 0 }

// Pages returns the number of shadow pages currently allocated.
func (sh *Shadow) Pages() int { return len(sh.pages) }

// FlipGen returns the page-flip generation: it advances exactly when
// some page's tainted population crosses zero→nonzero (and on Reset).
// Two equal FlipGen readings bracket a window in which no clean page
// became dirty, so a clean-footprint verdict taken at the first
// reading still holds at the second. Compare with Gen, which also
// moves on writes confined to already-dirty pages.
func (sh *Shadow) FlipGen() uint64 { return sh.flipGen }

// PageClean reports whether the 4 KiB page with index idx (addr >>
// 12) holds no tainted byte. It deliberately bypasses the one-entry
// TLB: clean-tier probes would otherwise thrash the cached entry the
// guest's own loads and stores are using, and charge their misses to
// the TLB effectiveness counters.
func (sh *Shadow) PageClean(idx uint32) bool {
	p := sh.pages[idx]
	return p == nil || p.pop == 0
}

// bytePages returns how many allocated pages have degraded to byte
// mode (exposed for tests and stats).
func (sh *Shadow) bytePages() int {
	n := 0
	for _, p := range sh.pages {
		if p.bytes != nil {
			n++
		}
	}
	return n
}
