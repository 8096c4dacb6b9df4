package isa

import (
	"encoding/binary"
	"maps"
)

// Memory is a sparse, paged, little-endian 32-bit guest address space.
// Reads from unmapped pages return zero; writes allocate pages on
// demand. Every process owns one Memory; fork() clones it
// copy-on-write: parent and child share every page until one of them
// first writes it, and that write gives the writer its own copy.
//
// The hot paths mirror taint.Shadow's: 32-bit accesses that stay
// inside one page are a single page lookup plus one 4-byte move, and
// a small software TLB short-circuits the page map for the local
// access streams the §9 benchmarks show.
type Memory struct {
	pages map[uint32]memSlot

	// Software TLB, direct-mapped by the low page-index bits: a copy
	// kernel alternating between a source and a destination page — the
	// dominant §9 access shape — keeps both resident instead of
	// evicting one with every access. A nil page marks an empty slot.
	tlb [memTLBWays]memTLBEnt
}

// memTLBEnt caches one page resolution. Any valid slot serves reads;
// only a writable slot serves writes, and a slot is writable exactly
// when this address space owns the page — so the write fast path
// needs no ownership test of its own.
type memTLBEnt struct {
	idx      uint32
	page     *memPage
	writable bool
}

const (
	memPageShift = 12
	memPageSize  = 1 << memPageShift
	memPageMask  = memPageSize - 1
	memTLBWays   = 4 // direct-mapped slots; must be a power of two
)

type memPage struct {
	data [memPageSize]byte
}

// memSlot is one page-table entry. owned says this address space may
// write the page in place; Clone clears it on both sides, and each
// side's first write replaces the shared page with a private copy.
// Ownership lives here rather than in the page so a page stays exactly
// 4 KiB of pointer-free data: one allocation size class, never scanned
// by the garbage collector.
type memSlot struct {
	page  *memPage
	owned bool
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]memSlot)}
}

// page resolves a page index through the TLB, returning nil when the
// page is unallocated.
func (m *Memory) page(idx uint32) *memPage {
	e := &m.tlb[idx&(memTLBWays-1)]
	if e.page != nil && e.idx == idx {
		return e.page
	}
	sl := m.pages[idx]
	if sl.page != nil {
		e.idx, e.page, e.writable = idx, sl.page, sl.owned
	}
	return sl.page
}

// pageAlloc resolves a page index for a write, allocating the page on
// demand and copying a shared one. The result is always a page this
// address space owns, cached in a writable TLB slot.
func (m *Memory) pageAlloc(idx uint32) *memPage {
	e := &m.tlb[idx&(memTLBWays-1)]
	if e.writable && e.idx == idx {
		return e.page
	}
	sl := m.pages[idx]
	if !sl.owned {
		p := &memPage{}
		if sl.page != nil {
			p.data = sl.page.data
		}
		sl = memSlot{page: p, owned: true}
		m.pages[idx] = sl
	}
	e.idx, e.page, e.writable = idx, sl.page, true
	return sl.page
}

// Load8 reads one byte.
func (m *Memory) Load8(addr uint32) byte {
	p := m.page(addr >> memPageShift)
	if p == nil {
		return 0
	}
	return p.data[addr&memPageMask]
}

// Store8 writes one byte.
func (m *Memory) Store8(addr uint32, v byte) {
	m.pageAlloc(addr >> memPageShift).data[addr&memPageMask] = v
}

// Load32 reads a little-endian 32-bit word. Accesses that stay inside
// one page — aligned or not — are a single lookup.
func (m *Memory) Load32(addr uint32) uint32 {
	off := addr & memPageMask
	if off <= memPageSize-4 {
		p := m.page(addr >> memPageShift)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p.data[off : off+4])
	}
	return uint32(m.Load8(addr)) |
		uint32(m.Load8(addr+1))<<8 |
		uint32(m.Load8(addr+2))<<16 |
		uint32(m.Load8(addr+3))<<24
}

// Store32 writes a little-endian 32-bit word. The TLB probe is open-
// coded so the resident-page fast path — every store of a hot loop
// after the first — stays a single inlinable branch, not a call chain
// through pageAlloc.
func (m *Memory) Store32(addr uint32, v uint32) {
	off := addr & memPageMask
	if off <= memPageSize-4 {
		idx := addr >> memPageShift
		e := &m.tlb[idx&(memTLBWays-1)]
		p := e.page
		if !e.writable || e.idx != idx {
			p = m.pageAlloc(idx)
		}
		binary.LittleEndian.PutUint32(p.data[off:off+4], v)
		return
	}
	m.Store8(addr, byte(v))
	m.Store8(addr+1, byte(v>>8))
	m.Store8(addr+2, byte(v>>16))
	m.Store8(addr+3, byte(v>>24))
}

// ReadBytes copies n bytes starting at addr into a new slice,
// page-at-a-time.
func (m *Memory) ReadBytes(addr, n uint32) []byte {
	out := make([]byte, n)
	for done := uint32(0); done < n; {
		off := (addr + done) & memPageMask
		chunk := memPageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		if p := m.page((addr + done) >> memPageShift); p != nil {
			copy(out[done:done+chunk], p.data[off:off+chunk])
		}
		done += chunk
	}
	return out
}

// WriteBytes copies b into memory starting at addr, page-at-a-time.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for done := uint32(0); done < uint32(len(b)); {
		off := (addr + done) & memPageMask
		chunk := memPageSize - off
		if chunk > uint32(len(b))-done {
			chunk = uint32(len(b)) - done
		}
		p := m.pageAlloc((addr + done) >> memPageShift)
		copy(p.data[off:off+chunk], b[done:done+chunk])
		done += chunk
	}
}

// CString reads a NUL-terminated string starting at addr, up to a
// sanity cap of 64 KiB.
func (m *Memory) CString(addr uint32) string {
	const cap = 64 << 10
	var out []byte
	for i := uint32(0); i < cap; i++ {
		b := m.Load8(addr + i)
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out)
}

// CStringLen returns the length of the NUL-terminated string at addr
// (excluding the terminator), capped at 64 KiB.
func (m *Memory) CStringLen(addr uint32) uint32 {
	const cap = 64 << 10
	for i := uint32(0); i < cap; i++ {
		if m.Load8(addr+i) == 0 {
			return i
		}
	}
	return cap
}

// WriteCString writes s followed by a NUL terminator at addr and
// returns the number of bytes written including the terminator.
func (m *Memory) WriteCString(addr uint32, s string) uint32 {
	m.WriteBytes(addr, []byte(s))
	m.Store8(addr+uint32(len(s)), 0)
	return uint32(len(s)) + 1
}

// Clone returns a copy-on-write copy of the address space (fork()).
// Both sides share every page and own none of them, and the parent's
// TLB slots stop serving writes; the first write either side makes to
// a shared page copies it. The clone starts with a cold page cache.
func (m *Memory) Clone() *Memory {
	for idx, sl := range m.pages {
		if sl.owned {
			m.pages[idx] = memSlot{page: sl.page}
		}
	}
	for i := range m.tlb {
		m.tlb[i].writable = false
	}
	return &Memory{pages: maps.Clone(m.pages)}
}

// Reset drops all pages (execve()). Pages still shared with a fork
// relative are dropped without being copied.
func (m *Memory) Reset() {
	m.pages = make(map[uint32]memSlot)
	m.tlb = [memTLBWays]memTLBEnt{}
}

// Pages returns the number of resident pages.
func (m *Memory) Pages() int { return len(m.pages) }
