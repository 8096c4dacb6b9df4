package harrier

import "repro/internal/isa"

// This file is the symbolic address domain of the trace compiler: it
// summarizes the memory a traced path touches as entry-relative
// addresses. Both key forms of the no-op verdict cache (cleantier.go)
// rest on that summary: the page-keyed footprint and the value-keyed
// base registers.
//
// Mops resolve their addresses against *live* register values, so
// the trace itself needs no symbolic treatment. The verdicts, however,
// reason about the whole path before it runs, from the
// register file as it stands at trace entry. The compiler therefore
// carries a tiny symbolic value domain per register — unknown, a
// constant, or "entry value of register r plus offset" — mirroring
// the CPU's arithmetic exactly. Every memory operand whose address
// stays expressible as entry-reg + displacement is recorded in that
// form; a path touching memory through a value the domain cannot
// express (e.g. a pointer loaded from memory) has no summary, and its
// trace never runs bare.

// sumNoBase in a base slot marks an absolute address (disp only).
const sumNoBase = 0xFF

// sumAccess is one memory access of the path: (entry register base,
// 32-bit displacement) resolved against the register file at trace
// entry, sumNoBase meaning absolute. wide is a word access, otherwise
// a byte.
type sumAccess struct {
	base uint8
	disp uint32
	wide bool
}

// Symbolic register values: the compiler's model of the concrete
// register file as a function of trace-entry state.
type symKind uint8

const (
	symUnknown symKind = iota // unpredictable at entry (e.g. loaded)
	symConst                  // the constant off
	symRegOff                 // entry value of reg, plus off
)

type symVal struct {
	kind symKind
	reg  isa.Reg
	off  uint32
}

func symConstOf(v uint32) symVal { return symVal{kind: symConst, off: v} }

// plus offsets a known value by d; unknown stays unknown.
func (v symVal) plus(d uint32) symVal {
	if v.kind != symUnknown {
		v.off += d
	}
	return v
}

// sumCompiler walks a path instruction by instruction, recording its
// memory accesses and updating the symbolic register file in lockstep
// with the CPU's execution semantics.
type sumCompiler struct {
	sym [isa.NumRegs]symVal
	acc []sumAccess
}

// newSumCompiler starts the domain at trace entry: every register
// holds its own entry value.
func newSumCompiler() sumCompiler {
	var sc sumCompiler
	for r := range sc.sym {
		sc.sym[r] = symVal{kind: symRegOff, reg: isa.Reg(r)}
	}
	return sc
}

// addrOf models EffectiveAddr symbolically.
func (sc *sumCompiler) addrOf(op *isa.Operand) symVal {
	if !op.HasBase {
		return symConstOf(op.Imm)
	}
	return sc.sym[op.Reg].plus(op.Imm)
}

// access records a memory access at addr, failing when the address is
// not expressible against the entry register file.
func (sc *sumCompiler) access(addr symVal, wide bool) bool {
	switch addr.kind {
	case symConst:
		sc.acc = append(sc.acc, sumAccess{base: sumNoBase, disp: addr.off, wide: wide})
	case symRegOff:
		sc.acc = append(sc.acc, sumAccess{base: uint8(addr.reg), disp: addr.off, wide: wide})
	default:
		return false
	}
	return true
}

// operand records the access of op if it is a memory operand.
func (sc *sumCompiler) operand(op *isa.Operand, wide bool) bool {
	return op.Kind != isa.MemOperand || sc.access(sc.addrOf(op), wide)
}

// valueOf models ReadOperand: the 32-bit value a source operand
// denotes, as a symbolic value.
func (sc *sumCompiler) valueOf(op *isa.Operand) symVal {
	switch op.Kind {
	case isa.RegOperand:
		return sc.sym[op.Reg]
	case isa.ImmOperand:
		return symConstOf(op.Imm)
	}
	return symVal{} // memory load or empty operand: unknown
}

// instr records the accesses of one instruction the trace compiler
// consumed and advances the symbolic register file, returning false
// when an address is inexpressible (or a divisor statically zero).
// The operand shapes are the ones trace.go accepts; the symbolic
// update mirrors CPU.Step case by case and must stay in lockstep
// with it.
func (sc *sumCompiler) instr(in *isa.Instr) bool {
	switch in.Op {
	case isa.MOV, isa.MOVB:
		wide := in.Op == isa.MOV
		if !sc.operand(&in.B, wide) || !sc.operand(&in.A, wide) {
			return false
		}
		if in.A.Kind == isa.RegOperand {
			if wide {
				sc.sym[in.A.Reg] = sc.valueOf(&in.B)
			} else {
				sc.sym[in.A.Reg] = sc.movbValue(in)
			}
		}
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.MUL, isa.DIVOP, isa.MODOP, isa.SHL, isa.SHR:
		if (in.Op == isa.XOR || in.Op == isa.SUB) &&
			in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand &&
			in.A.Reg == in.B.Reg {
			sc.sym[in.A.Reg] = symConstOf(0) // zeroing idiom
			return true
		}
		if (in.Op == isa.DIVOP || in.Op == isa.MODOP) && sc.constZero(&in.B) {
			return false // statically faults mid-path
		}
		if !sc.operand(&in.B, true) || !sc.operand(&in.A, true) {
			return false
		}
		if in.A.Kind == isa.RegOperand {
			sc.sym[in.A.Reg] = sc.aluValue(in)
		}
	case isa.LEA:
		// The loaded value is the effective address itself; no access.
		sc.sym[in.A.Reg] = sc.addrOf(&in.B)
	case isa.NOT, isa.NEG, isa.INC, isa.DEC:
		if in.A.Kind != isa.RegOperand {
			return sc.operand(&in.A, true)
		}
		a := sc.sym[in.A.Reg]
		switch {
		case in.Op == isa.INC:
			sc.sym[in.A.Reg] = a.plus(1)
		case in.Op == isa.DEC:
			sc.sym[in.A.Reg] = a.plus(^uint32(0))
		case a.kind == symConst && in.Op == isa.NOT:
			sc.sym[in.A.Reg] = symConstOf(^a.off)
		case a.kind == symConst && in.Op == isa.NEG:
			sc.sym[in.A.Reg] = symConstOf(-a.off)
		default:
			sc.sym[in.A.Reg] = symVal{}
		}
	case isa.PUSH:
		// The source is read with the pre-push ESP; the word below ESP
		// is written.
		esp := sc.sym[isa.ESP]
		if !sc.operand(&in.A, true) || !sc.access(esp.plus(^uint32(3)), true) {
			return false
		}
		sc.sym[isa.ESP] = esp.plus(^uint32(3))
	case isa.POP:
		if in.A.Kind != isa.RegOperand || !sc.access(sc.sym[isa.ESP], true) {
			return false
		}
		sc.sym[isa.ESP] = sc.sym[isa.ESP].plus(4)
		sc.sym[in.A.Reg] = symVal{} // loaded from memory
	case isa.CPUID:
		sc.sym[isa.EAX] = symConstOf(0x48544853)
		sc.sym[isa.EBX] = symConstOf(0x696D5543)
		sc.sym[isa.ECX] = symConstOf(0x756C6174)
		sc.sym[isa.EDX] = symConstOf(0x726F2121)
	case isa.RDTSC:
		sc.sym[isa.EAX] = symVal{}
		sc.sym[isa.EDX] = symVal{}
	case isa.CMP, isa.TEST, isa.NOP,
		isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JLE, isa.JG, isa.JGE:
		// No tracked data flow and no register writes.
	default:
		return false
	}
	return true
}

// movbValue models writeOperand8: the destination keeps its upper
// bytes, so the result is computable only when both halves are.
func (sc *sumCompiler) movbValue(in *isa.Instr) symVal {
	old := sc.sym[in.A.Reg]
	src := sc.valueOf(&in.B)
	if old.kind == symConst && src.kind == symConst {
		return symConstOf((old.off &^ 0xFF) | (src.off & 0xFF))
	}
	return symVal{}
}

// constZero reports whether a source operand is statically zero.
func (sc *sumCompiler) constZero(op *isa.Operand) bool {
	v := sc.valueOf(op)
	return v.kind == symConst && v.off == 0
}

// aluValue models the ALU result for a register destination,
// mirroring the operator semantics in CPU.Step exactly.
func (sc *sumCompiler) aluValue(in *isa.Instr) symVal {
	a := sc.sym[in.A.Reg]
	b := sc.valueOf(&in.B)
	switch in.Op {
	case isa.ADD:
		if b.kind == symConst {
			return a.plus(b.off)
		}
		if a.kind == symConst {
			return b.plus(a.off)
		}
	case isa.SUB:
		if b.kind == symConst {
			return a.plus(-b.off)
		}
		if a.kind == symRegOff && b.kind == symRegOff && a.reg == b.reg {
			return symConstOf(a.off - b.off)
		}
	default:
		if a.kind == symConst && b.kind == symConst {
			x, y := a.off, b.off
			switch in.Op {
			case isa.AND:
				return symConstOf(x & y)
			case isa.OR:
				return symConstOf(x | y)
			case isa.XOR:
				return symConstOf(x ^ y)
			case isa.MUL:
				return symConstOf(x * y)
			case isa.DIVOP:
				if y != 0 {
					return symConstOf(x / y)
				}
			case isa.MODOP:
				if y != 0 {
					return symConstOf(x % y)
				}
			case isa.SHL:
				return symConstOf(x << (y & 31))
			case isa.SHR:
				return symConstOf(x >> (y & 31))
			}
		}
	}
	return symVal{}
}
