package isa

import (
	"fmt"
	"math/rand"
	"testing"
)

// The copy-on-write fork oracle: random interleavings of writes,
// reads, Clone and Reset across a parent and its fork relatives,
// checked against a deep-copy reference. Pages shared by Clone are
// copied on the first write, which must be invisible: every byte
// matches a model that copies everything eagerly.

const (
	cowBase   = uint32(0x10000)
	cowWindow = 3 * memPageSize
	cowSpaces = 4 // live address spaces: the parent and up to three relatives
)

// Memory COW op kinds.
const (
	mopStore8 = iota
	mopStore32
	mopWriteBytes
	mopLoad32
	mopClone
	mopReset
	mopLoad8
	mopKinds
)

// memCowOp is one step: kind applied to address space space at addr.
// arg is the stored value, or the length of a WriteBytes.
type memCowOp struct {
	kind  uint8
	space int
	addr  uint32
	arg   uint32
}

// decodeMemCowOps turns fuzz bytes into ops, five bytes per op.
func decodeMemCowOps(data []byte) []memCowOp {
	var ops []memCowOp
	for ; len(data) >= 5; data = data[5:] {
		ops = append(ops, memCowOp{
			kind:  data[0] % mopKinds,
			space: int(data[0]/mopKinds) % cowSpaces,
			addr:  cowBase + (uint32(data[1])<<8|uint32(data[2]))*3%cowWindow,
			arg:   uint32(data[3])<<8 | uint32(data[4]),
		})
	}
	return ops
}

// randomMemCowOps draws n ops from seed.
func randomMemCowOps(seed int64, n int) []memCowOp {
	rr := rand.New(rand.NewSource(seed))
	ops := make([]memCowOp, n)
	for i := range ops {
		ops[i] = memCowOp{
			kind:  uint8(rr.Intn(mopKinds)),
			space: rr.Intn(cowSpaces),
			addr:  cowBase + uint32(rr.Intn(cowWindow)),
			arg:   rr.Uint32(),
		}
	}
	return ops
}

type memCowWorld struct {
	t   *testing.T
	mem []*Memory
	ref []map[uint32]byte
}

// span clamps a length so the access stays inside the window.
func span(addr, n uint32) uint32 {
	if end := cowBase + cowWindow; addr+n > end {
		return end - addr
	}
	return n
}

func (w *memCowWorld) apply(step int, op memCowOp) {
	i := op.space % len(w.mem)
	m, ref := w.mem[i], w.ref[i]
	where := fmt.Sprintf("step %d (op %d on memory %d at %#x)", step, op.kind, i, op.addr)
	load := func(a uint32) byte { return ref[a] }
	switch op.kind {
	case mopStore8:
		m.Store8(op.addr, byte(op.arg))
		ref[op.addr] = byte(op.arg)
	case mopStore32:
		a := op.addr
		if span(a, 4) < 4 {
			a -= 4
		}
		m.Store32(a, op.arg)
		for k := uint32(0); k < 4; k++ {
			ref[a+k] = byte(op.arg >> (8 * k))
		}
	case mopWriteBytes:
		n := span(op.addr, op.arg%(2*memPageSize+1))
		b := make([]byte, n)
		for k := range b {
			b[k] = byte(op.arg) + byte(k)
			ref[op.addr+uint32(k)] = b[k]
		}
		m.WriteBytes(op.addr, b)
	case mopLoad32:
		a := op.addr
		if span(a, 4) < 4 {
			a -= 4
		}
		want := uint32(load(a)) | uint32(load(a+1))<<8 | uint32(load(a+2))<<16 | uint32(load(a+3))<<24
		if got := m.Load32(a); got != want {
			w.t.Fatalf("%s: Load32 = %#x, want %#x", where, got, want)
		}
	case mopLoad8:
		if got, want := m.Load8(op.addr), load(op.addr); got != want {
			w.t.Fatalf("%s: Load8 = %#x, want %#x", where, got, want)
		}
	case mopClone:
		if len(w.mem) == cowSpaces {
			return
		}
		// No check here: its reads would refill the TLB and hide a
		// Clone that leaves the parent's entry writable.
		cp := make(map[uint32]byte, len(ref))
		for a, v := range ref {
			cp[a] = v
		}
		w.mem = append(w.mem, m.Clone())
		w.ref = append(w.ref, cp)
	case mopReset:
		w.check(where+" before reset", i)
		m.Reset()
		w.ref[i] = map[uint32]byte{}
	}
}

// check compares every byte of address space i, through both the
// bulk and the single-byte read paths.
func (w *memCowWorld) check(where string, i int) {
	w.t.Helper()
	m, ref := w.mem[i], w.ref[i]
	bulk := m.ReadBytes(cowBase, cowWindow)
	for k, got := range bulk {
		a := cowBase + uint32(k)
		if want := ref[a]; got != want || m.Load8(a) != want {
			w.t.Fatalf("%s: memory %d byte %#x = %#x/%#x, want %#x", where, i, a, got, m.Load8(a), want)
		}
	}
}

func runMemoryCOW(t *testing.T, ops []memCowOp) {
	w := &memCowWorld{t: t, mem: []*Memory{NewMemory()}, ref: []map[uint32]byte{{}}}
	for step, op := range ops {
		w.apply(step, op)
	}
	for i := range w.mem {
		w.check("final", i)
	}
}

// TestMemoryCOWDifferential runs hand-written fork histories plus
// seeded random interleavings against the deep-copy reference.
func TestMemoryCOWDifferential(t *testing.T) {
	const pg = memPageSize
	cases := []struct {
		name string
		ops  []memCowOp
	}{
		{
			// The parent's TLB holds the page writable when it forks:
			// its next store must still copy, leaving the child's view.
			name: "parent stores through a hot TLB entry",
			ops: []memCowOp{
				{kind: mopStore32, space: 0, addr: cowBase + 8, arg: 0x11223344},
				{kind: mopClone, space: 0},
				{kind: mopStore32, space: 0, addr: cowBase + 8, arg: 0x55667788},
				{kind: mopStore8, space: 0, addr: cowBase + 9, arg: 0x99},
				{kind: mopLoad32, space: 1, addr: cowBase + 8},
			},
		},
		{
			// A load fills the TLB with a shared page; the store that
			// follows on the same page must not reuse that slot.
			name: "load then store a shared page",
			ops: []memCowOp{
				{kind: mopWriteBytes, space: 0, addr: cowBase, arg: 64},
				{kind: mopClone, space: 0},
				{kind: mopLoad32, space: 1, addr: cowBase + 4},
				{kind: mopStore32, space: 1, addr: cowBase + 4, arg: 7},
				{kind: mopLoad32, space: 0, addr: cowBase + 4},
				{kind: mopLoad32, space: 1, addr: cowBase + 4},
			},
		},
		{
			// fork → exec: the child drops every shared page without
			// copying and the parent keeps its own view.
			name: "fork then reset",
			ops: []memCowOp{
				{kind: mopWriteBytes, space: 0, addr: cowBase, arg: 2 * pg},
				{kind: mopClone, space: 0},
				{kind: mopReset, space: 1},
				{kind: mopStore8, space: 1, addr: cowBase, arg: 1},
				{kind: mopStore32, space: 0, addr: cowBase + 4, arg: 2},
			},
		},
		{
			name: "straddling writes across shared pages",
			ops: []memCowOp{
				{kind: mopWriteBytes, space: 0, addr: cowBase + pg - 40, arg: 80},
				{kind: mopClone, space: 0},
				{kind: mopClone, space: 1},
				{kind: mopStore32, space: 2, addr: cowBase + pg - 2, arg: 0xA1B2C3D4},
				{kind: mopWriteBytes, space: 1, addr: cowBase + 2*pg - 20, arg: 300},
				{kind: mopLoad32, space: 0, addr: cowBase + pg - 2},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runMemoryCOW(t, c.ops) })
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("random/%d", seed), func(t *testing.T) {
			runMemoryCOW(t, randomMemCowOps(seed, 400))
		})
	}
}

// FuzzMemoryCOW is the fuzz form of the oracle: five bytes per op.
func FuzzMemoryCOW(f *testing.F) {
	f.Add([]byte{mopStore32, 0, 8, 1, 2, mopClone, 0, 0, 0, 0, mopStore32, 0, 8, 3, 4, mopLoad32 + mopKinds, 0, 8, 0, 0})
	f.Add([]byte{mopWriteBytes, 0, 0, 16, 0, mopClone, 0, 0, 0, 0, mopReset + mopKinds, 0, 0, 0, 0, mopStore8, 0, 4, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		runMemoryCOW(t, decodeMemCowOps(data))
	})
}
