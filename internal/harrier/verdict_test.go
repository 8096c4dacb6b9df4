package harrier

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/taint"
)

// verdictRig runs one straight-line program side by side on the
// interpreter tier and on traces with the no-op verdict cache, from the
// same concrete and taint state, so a test can stage the exact
// sequence of trace entries and shadow writes a stale verdict would
// survive.
type verdictRig struct {
	t             *testing.T
	h             *Harrier
	span          *isa.Span
	interp, trace *isa.CPU
}

func newVerdictRig(t *testing.T, prog []isa.Instr) *verdictRig {
	t.Helper()
	span := isa.NewSpan(0x10000, "verdict", append(prog, isa.Instr{Op: isa.HLT}), nil)
	h := New(Config{Dataflow: true}, nil)
	if installTraces(h, span) == 0 {
		t.Fatal("program compiled no trace")
	}
	mk := func(traces bool) *isa.CPU {
		c := isa.NewCPU()
		c.Code.Add(span)
		c.Shadow = taint.NewShadow(h.Store)
		c.Hooks.OnInstr = h.trackDataFlow
		c.Hooks.OnInstrData = true
		if traces {
			c.Hooks.OnBBSummary = h.onBBSummary
		}
		return c
	}
	return &verdictRig{t: t, h: h, span: span, interp: mk(false), trace: mk(true)}
}

// both applies f to the two CPUs.
func (r *verdictRig) both(f func(c *isa.CPU)) {
	f(r.interp)
	f(r.trace)
}

// enter runs one trace entry from the span's head on the trace CPU
// under the given budget (0: unlimited), steps the interpreter CPU to
// the same retired count, and returns the EIP both stopped at.
func (r *verdictRig) enter(budget int) uint32 {
	r.t.Helper()
	// ExitTrace is the CPU's reposition-at-a-block-entry primitive.
	r.both(func(c *isa.CPU) { c.ExitTrace(r.span.Base, true) })
	r.trace.TraceBudget = budget
	if err := r.trace.Step(); err != nil {
		r.t.Fatalf("trace entry: %v", err)
	}
	for r.interp.Steps < r.trace.Steps {
		if err := r.interp.Step(); err != nil {
			r.t.Fatalf("interpreter step: %v", err)
		}
	}
	if r.interp.EIP != r.trace.EIP || r.interp.Steps != r.trace.Steps {
		r.t.Fatalf("entry stopped apart: interp eip %#x steps %d, trace eip %#x steps %d",
			r.interp.EIP, r.interp.Steps, r.trace.EIP, r.trace.Steps)
	}
	return r.trace.EIP
}

// check fails the test on any register, register-tag or shadow-window
// divergence between the two CPUs.
func (r *verdictRig) check(what string) {
	r.t.Helper()
	a, b := r.interp, r.trace
	if a.Regs != b.Regs {
		r.t.Fatalf("%s: registers diverged: interp %v, trace %v", what, a.Regs, b.Regs)
	}
	if a.RegTags != b.RegTags {
		r.t.Fatalf("%s: register tags diverged: interp %v, trace %v", what, a.RegTags, b.RegTags)
	}
	for addr := uint32(0); addr < 0x4000; addr++ {
		if ta, tb := a.Shadow.Get(addr), b.Shadow.Get(addr); ta != tb {
			r.t.Fatalf("%s: shadow diverged at %#x: interp tag%d, trace tag%d", what, addr, ta, tb)
		}
	}
}

func memAt(base isa.Reg) isa.Operand {
	return isa.Operand{Kind: isa.MemOperand, Reg: base, HasBase: true}
}

// TestVerdictStaleness holds every key field and stamp of the no-op
// verdict cache to the interpreter: each case caches a verdict, then
// changes exactly one thing the verdict depends on — the shadow's
// write generation, the page-flip generation, an address register's
// value, or the generation a prefix was verified at — and requires the
// next entry to re-prove (or hand over to the full transfer) and end
// bit-identical to the interpreter.
func TestVerdictStaleness(t *testing.T) {
	load := []isa.Instr{
		{Op: isa.MOV, A: isa.R(isa.EAX), B: memAt(isa.ESI)},
		{Op: isa.MOV, A: memAt(isa.EDI), B: isa.R(isa.EAX)},
	}

	t.Run("value-keyed/gen-moves-flipgen-does-not", func(t *testing.T) {
		r := newVerdictRig(t, load)
		t1 := r.h.Store.Of(taint.Source{Type: taint.Socket, Name: "a:1"})
		t2 := r.h.Store.Of(taint.Source{Type: taint.Socket, Name: "b:2"})
		r.both(func(c *isa.CPU) {
			c.Regs[isa.ESI], c.Regs[isa.EDI] = 0x1000, 0x1100
			c.Shadow.SetWord(0x1000, t1)
			c.Shadow.SetWord(0x1100, t1)
			c.RegTags[isa.EAX] = t1
		})
		r.enter(0) // verify run: stationary, installs the value-keyed verdict
		r.enter(0) // served bare
		if r.h.stats.GateSkips == 0 {
			t.Fatal("no value-keyed verdict served the second entry")
		}
		// A tag change on the already-tainted page: Gen moves, FlipGen
		// does not, so only the value-keyed stamp can see it.
		flip, gen := r.trace.Shadow.FlipGen(), r.trace.Shadow.Gen()
		r.both(func(c *isa.CPU) { c.Shadow.SetWord(0x1000, t2) })
		if r.trace.Shadow.FlipGen() != flip || r.trace.Shadow.Gen() == gen {
			t.Fatal("setup: the write must move Gen and not FlipGen")
		}
		r.enter(0)
		r.check("after a dirty-page tag change")
		if r.trace.RegTags[isa.EAX] != t2 {
			t.Fatalf("eax tag %d, want the new source's %d", r.trace.RegTags[isa.EAX], t2)
		}
	})

	t.Run("page-keyed/flip-on-footprint", func(t *testing.T) {
		r := newVerdictRig(t, load)
		r.both(func(c *isa.CPU) { c.Regs[isa.ESI], c.Regs[isa.EDI] = 0x1000, 0x2100 })
		r.enter(0) // static proof over clean pages
		r.enter(0)
		if r.h.stats.CleanDemoted == 0 || r.h.stats.CleanHits == 0 {
			t.Fatalf("no page-keyed verdict served: %+v", r.h.stats)
		}
		t1 := r.h.Store.Of(taint.Source{Type: taint.UserInput, Name: "stdin"})
		r.both(func(c *isa.CPU) { c.Shadow.SetWord(0x1000, t1) })
		r.enter(0)
		r.check("after taint landed on the footprint")
		if r.h.stats.Reinstrumented == 0 {
			t.Fatal("stale page-keyed verdict was not dropped")
		}
		if r.trace.Shadow.Get(0x2100) != t1 {
			t.Fatal("the load/store pair did not carry the new taint")
		}
	})

	t.Run("value-keyed/address-register-moves", func(t *testing.T) {
		r := newVerdictRig(t, load)
		t1 := r.h.Store.Of(taint.Source{Type: taint.Socket, Name: "a:1"})
		t2 := r.h.Store.Of(taint.Source{Type: taint.Socket, Name: "b:2"})
		r.both(func(c *isa.CPU) {
			c.Regs[isa.ESI], c.Regs[isa.EDI] = 0x1000, 0x1100
			c.Shadow.SetWord(0x1000, t1)
			c.Shadow.SetWord(0x1100, t1)
			c.Shadow.SetWord(0x1200, t2)
			c.RegTags[isa.EAX] = t1
		})
		r.enter(0)
		r.enter(0)
		if r.h.stats.GateSkips == 0 {
			t.Fatal("no value-keyed verdict served the second entry")
		}
		// Same shadow generation, same register tags, a different source
		// address: only the value key tells the entries apart.
		gen := r.trace.Shadow.Gen()
		r.both(func(c *isa.CPU) { c.Regs[isa.ESI] = 0x1200 })
		r.enter(0)
		r.check("after the source pointer moved")
		if r.trace.Shadow.Get(0x1100) != t2 || gen == r.trace.Shadow.Gen() {
			t.Fatal("the moved load did not carry the other source")
		}
	})

	t.Run("value-keyed/prefix-verified-at-new-gen", func(t *testing.T) {
		// Two chained blocks: the budget can stop a verify run at the
		// second block's boundary.
		r := newVerdictRig(t, []isa.Instr{
			{Op: isa.MOV, A: isa.R(isa.EAX), B: memAt(isa.ESI)},
			{Op: isa.JMP, A: isa.Imm(0x10000 + 2*isa.InstrSize)},
			{Op: isa.MOV, A: isa.R(isa.EBX), B: memAt(isa.EDI)},
		})
		t1 := r.h.Store.Of(taint.Source{Type: taint.Socket, Name: "a:1"})
		t2 := r.h.Store.Of(taint.Source{Type: taint.Socket, Name: "b:2"})
		r.both(func(c *isa.CPU) {
			c.Regs[isa.ESI], c.Regs[isa.EDI] = 0x1000, 0x1100
			c.Shadow.SetWord(0x1000, t1)
			c.Shadow.SetWord(0x1100, t1)
			c.RegTags[isa.EAX], c.RegTags[isa.EBX] = t1, t1
		})
		r.enter(0) // whole program verified at the first generation
		// The second block stops being a no-op at the new generation...
		r.both(func(c *isa.CPU) { c.Shadow.SetWord(0x1100, t2) })
		// ...and a budget-cut verify run proves only the first block.
		second := r.enter(2)
		if second != r.span.Base+2*isa.InstrSize {
			t.Fatalf("budget exit at %#x, want the second block", second)
		}
		skips := r.h.stats.GateSkips
		r.enter(0)
		if r.h.stats.GateSkips == skips {
			t.Fatal("the prefix verdict did not serve the entry")
		}
		r.check("after a prefix verified at a new generation")
		if r.trace.RegTags[isa.EBX] != t2 {
			t.Fatalf("ebx tag %d, want %d", r.trace.RegTags[isa.EBX], t2)
		}
	})
}
