package harrier

import (
	"testing"

	"repro/internal/isa"
)

// FuzzSummaryApply is the single-block case of the tiered engine's
// differential oracle: a pseudo-random straight-line block runs once
// under the interpreter tier (per-instruction trackDataFlow) and once
// with its compiled trace installed as the block's summary, starting
// from the same concrete registers, memory and taint state, against
// one shared tag store. Concrete state and the fault verdict must
// always match; when neither execution faults, the final register
// tags and the shadow bytes over the whole addressable window must be
// identical tag IDs. A mid-block fault voids the taint comparison by
// design: the process dies and its taint state is unreachable, which
// is exactly the argument that makes whole-block application sound.
func FuzzSummaryApply(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x00, 0x10})                         // mov eax, [0x40]
	f.Add([]byte{0x05, 0x09, 0x00, 0x20, 0x02, 0x11, 0x00, 0x08}) // alu + mov mix
	f.Add([]byte{0x14, 0x03, 0x00, 0x00, 0x15, 0x01, 0x00, 0x00}) // push/pop
	f.Add([]byte{0x0d, 0x00, 0x00, 0x00, 0x0e, 0x02, 0x00, 0x00}) // not/neg
	f.Add([]byte{0x16, 0x00, 0x00, 0x00, 0x17, 0x00, 0x00, 0x00}) // cpuid/rdtsc

	f.Fuzz(func(t *testing.T, data []byte) {
		diffTiers(t, buildFuzzSpan(data), data)
	})
}

// buildFuzzSpan decodes 4 bytes per instruction into a straight-line
// block ending in HLT. Displacements are kept small so the bulk of
// the traffic stays inside the compared shadow window.
func buildFuzzSpan(data []byte) *isa.Span {
	var instrs []isa.Instr
	for len(data) >= 4 && len(instrs) < 24 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		in := isa.Instr{Op: fuzzOps[int(b0)%len(fuzzOps)]}
		in.A = fuzzOperand(b1, b3)
		in.B = fuzzOperand(b2, b3>>1)
		instrs = append(instrs, in)
	}
	instrs = append(instrs, isa.Instr{Op: isa.HLT})
	return isa.NewSpan(0x10000, "fuzz", instrs, nil)
}
