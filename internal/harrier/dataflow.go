package harrier

import (
	"repro/internal/isa"
	"repro/internal/taint"
)

// trackDataFlow is the Track_DataFlow analysis inserted before every
// data-moving instruction (paper Figure 5). It implements §7.3.1:
// destination tags become the union of the source-operand tags,
// immediates carry BINARY:<image of the instruction>, and CPUID/RDTSC
// outputs carry HARDWARE. Control-transfer instructions and flags are
// not tracked — implicit flows are out of scope, as in the prototype
// (§7.3 footnote 7).
//
// The dispatcher stays branch-light: it classifies the opcode and
// hands off to a small per-op-class helper. Each helper resolves a
// memory operand's effective address exactly once per instruction and
// looks up the image's BINARY tag only when an immediate actually
// appears (the lookup itself is a one-entry cache in binTag, since
// instruction streams run within one image for long stretches).
//
// Started installs it with Hooks.OnInstrData set, so compares, jumps
// and other untracked instructions never pay the callback.
func (h *Harrier) trackDataFlow(c *isa.CPU, s *isa.Span, idx int) {
	h.stats.Instructions++
	if h.bus != nil && h.stats.Instructions&(taintSampleQuantum-1) == 0 {
		h.publishTaintSample(c)
	}
	in := &s.Instrs[idx]
	if c.Shadow == nil {
		return
	}

	switch in.Op {
	case isa.MOV:
		h.flowMov(c, in, s.Image)

	case isa.MOVB:
		h.flowMovb(c, in, s.Image)

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.MUL, isa.DIVOP, isa.MODOP, isa.SHL, isa.SHR:
		h.flowALU(c, in, s.Image)

	case isa.LEA:
		h.flowLEA(c, in, s.Image)

	case isa.NOT, isa.NEG, isa.INC, isa.DEC:
		h.flowUnary(c, in, s.Image)

	case isa.PUSH, isa.POP, isa.CALL:
		h.flowStack(c, in, s.Image)

	case isa.CPUID:
		c.RegTags[isa.EAX] = h.hwTag
		c.RegTags[isa.EBX] = h.hwTag
		c.RegTags[isa.ECX] = h.hwTag
		c.RegTags[isa.EDX] = h.hwTag
		if h.prov != nil {
			h.provHardware(c, "cpuid", 0)
		}

	case isa.RDTSC:
		c.RegTags[isa.EAX] = h.hwTag
		c.RegTags[isa.EDX] = h.hwTag
		if h.prov != nil {
			h.provHardware(c, "rdtsc", 0)
		}

	case isa.CMP, isa.TEST, isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JLE,
		isa.JG, isa.JGE, isa.RET, isa.INT, isa.HLT, isa.NOP, isa.NATIVE:
		// No tracked data flow: flags and control are implicit flows.
	}
}

// flowMov handles MOV: the destination tag is the source tag. The
// common reg<->mem cases never touch the BINARY tag.
func (h *Harrier) flowMov(c *isa.CPU, in *isa.Instr, image string) {
	var t taint.Tag
	switch in.B.Kind {
	case isa.RegOperand:
		t = c.RegTags[in.B.Reg]
	case isa.ImmOperand:
		t = h.binTag(image)
	case isa.MemOperand:
		t = c.Shadow.GetWord(c.EffectiveAddr(&in.B))
	}
	switch in.A.Kind {
	case isa.RegOperand:
		c.RegTags[in.A.Reg] = t
	case isa.MemOperand:
		c.Shadow.SetWord(c.EffectiveAddr(&in.A), t)
	}
}

// flowMovb handles MOVB with byte granularity. Register byte writes
// replace the whole register's tag — a documented precision trade-off
// (registers carry one tag, not four).
func (h *Harrier) flowMovb(c *isa.CPU, in *isa.Instr, image string) {
	var t taint.Tag
	switch in.B.Kind {
	case isa.RegOperand:
		t = c.RegTags[in.B.Reg]
	case isa.ImmOperand:
		t = h.binTag(image)
	case isa.MemOperand:
		t = c.Shadow.Get(c.EffectiveAddr(&in.B))
	}
	switch in.A.Kind {
	case isa.RegOperand:
		c.RegTags[in.A.Reg] = t
	case isa.MemOperand:
		c.Shadow.Set(c.EffectiveAddr(&in.A), t)
	}
}

// flowALU handles two-operand arithmetic: the destination becomes the
// union of both operand tags. A memory destination's effective address
// is resolved once and reused for the read and the write.
func (h *Harrier) flowALU(c *isa.CPU, in *isa.Instr, image string) {
	// xor r,r and sub r,r produce a constant regardless of the
	// operand value: the canonical zeroing idioms drop taint.
	if (in.Op == isa.XOR || in.Op == isa.SUB) &&
		in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand &&
		in.A.Reg == in.B.Reg {
		c.RegTags[in.A.Reg] = taint.Empty
		return
	}
	var (
		ta, tb taint.Tag
		eaA    uint32
	)
	switch in.A.Kind {
	case isa.RegOperand:
		ta = c.RegTags[in.A.Reg]
	case isa.ImmOperand:
		ta = h.binTag(image)
	case isa.MemOperand:
		eaA = c.EffectiveAddr(&in.A)
		ta = c.Shadow.GetWord(eaA)
	}
	switch in.B.Kind {
	case isa.RegOperand:
		tb = c.RegTags[in.B.Reg]
	case isa.ImmOperand:
		tb = h.binTag(image)
	case isa.MemOperand:
		tb = c.Shadow.GetWord(c.EffectiveAddr(&in.B))
	}
	t := h.Store.Union(ta, tb)
	switch in.A.Kind {
	case isa.RegOperand:
		c.RegTags[in.A.Reg] = t
	case isa.MemOperand:
		c.Shadow.SetWord(eaA, t)
	}
}

// flowLEA handles LEA: the loaded value is an address computed from
// the base register and a displacement encoded in the binary.
func (h *Harrier) flowLEA(c *isa.CPU, in *isa.Instr, image string) {
	t := h.binTag(image)
	if in.B.Kind == isa.MemOperand && in.B.HasBase {
		t = h.Store.Union(t, c.RegTags[in.B.Reg])
	}
	if in.A.Kind == isa.RegOperand {
		c.RegTags[in.A.Reg] = t
	}
}

// flowUnary handles single-operand ops. NOT/NEG preserve the operand
// tag; INC/DEC union in BINARY because the implied constant 1 is
// encoded in the binary (paper's rule for immediates).
func (h *Harrier) flowUnary(c *isa.CPU, in *isa.Instr, image string) {
	var (
		t   taint.Tag
		eaA uint32
	)
	switch in.A.Kind {
	case isa.RegOperand:
		t = c.RegTags[in.A.Reg]
	case isa.ImmOperand:
		t = h.binTag(image)
	case isa.MemOperand:
		eaA = c.EffectiveAddr(&in.A)
		t = c.Shadow.GetWord(eaA)
	}
	if in.Op == isa.INC || in.Op == isa.DEC {
		t = h.Store.Union(t, h.binTag(image))
	}
	switch in.A.Kind {
	case isa.RegOperand:
		c.RegTags[in.A.Reg] = t
	case isa.MemOperand:
		c.Shadow.SetWord(eaA, t)
	}
}

// flowStack handles PUSH/POP/CALL, which move words through the stack.
func (h *Harrier) flowStack(c *isa.CPU, in *isa.Instr, image string) {
	sh := c.Shadow
	switch in.Op {
	case isa.PUSH:
		var t taint.Tag
		switch in.A.Kind {
		case isa.RegOperand:
			t = c.RegTags[in.A.Reg]
		case isa.ImmOperand:
			t = h.binTag(image)
		case isa.MemOperand:
			t = sh.GetWord(c.EffectiveAddr(&in.A))
		}
		sh.SetWord(c.Regs[isa.ESP]-4, t)

	case isa.POP:
		t := sh.GetWord(c.Regs[isa.ESP])
		if in.A.Kind == isa.RegOperand {
			c.RegTags[in.A.Reg] = t
		} else if in.A.Kind == isa.MemOperand {
			sh.SetWord(c.EffectiveAddr(&in.A), t)
		}

	case isa.CALL:
		// The pushed return address is machine bookkeeping.
		sh.SetWord(c.Regs[isa.ESP]-4, taint.Empty)
	}
}

// nativePre captures the input-name tag of translation routines so
// nativePost can short-circuit the flow (paper §7.2: gethostbyname
// resolves outside the program; Harrier copies the resource ID tag
// directly to the resulting network address).
func (h *Harrier) nativePre(c *isa.CPU, name string) {
	switch name {
	case "gethostbyname", "gethostbyaddr":
		p := procOf(c)
		if p == nil || c.Shadow == nil {
			return
		}
		ptr := c.Regs[isa.EBX]
		n := c.Mem.CStringLen(ptr)
		h.natSave[p.PID] = c.Shadow.GetRange(ptr, n)
	}
}

// nativePost applies the saved tag to the routine's result.
func (h *Harrier) nativePost(c *isa.CPU, name string) {
	switch name {
	case "gethostbyname", "gethostbyaddr":
		p := procOf(c)
		if p == nil || c.Shadow == nil {
			return
		}
		t, ok := h.natSave[p.PID]
		if !ok {
			return
		}
		delete(h.natSave, p.PID)
		out := c.Regs[isa.EAX]
		if out == 0 {
			return
		}
		n := c.Mem.CStringLen(out)
		c.Shadow.SetRange(out, n+1, t)
		if h.prov != nil && t != taint.Empty {
			h.provXfer(p, t, name)
		}
	}
}
