package harrier

import (
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vos"
)

// Tier state machine. Every block starts in the interpreter tier
// (per-instruction Hooks.OnInstr dispatch). When its frequency
// counter — the one Collect_BB_Frequency already maintains — reaches
// Config.PromoteThreshold, the block is compiled once:
//
//   - traceable   -> a superblock trace (trace.go) rooted at the block
//     lands in the span's summary slot, and subsequent entries take
//     the Hooks.OnBBSummary fast path, which executes the trace (or,
//     under a no-op verdict, its uninstrumented variant; see
//     cleantier.go);
//   - untraceable -> a tierPinned marker lands in the slot, recording
//     that compilation was attempted and must not be retried: the
//     block stays in the interpreter tier permanently.
//
// Demotion happens on execve: the process's code map is about to be
// torn down, so PreExec drops every trace installed on its spans
// (spans can be shared with a forked parent, which simply re-promotes
// on its next hot entry — the trigger fires whenever the counter is
// past the threshold and the slot is empty). Exited processes need no
// demotion: their spans die with them, and spans shared with live
// relatives remain valid because spans are immutable.

// tierPinned marks a block whose compilation failed: permanently
// interpreter-tier, never recompiled (until the slot is dropped).
type tierPinned struct{}

// maybePromote is the tier transition, called from collectBBFrequency
// once the counter passes the threshold and the slot is empty.
// Out of line: the interpreter tier pays one compare per block entry.
//
//go:noinline
func (h *Harrier) maybePromote(c *isa.CPU, s *isa.Span, leader int, key bbKey) {
	p := c.Ctx.(*vos.Process)
	tr := h.compileTrace(s, leader, s.Image == p.Path)
	if tr == nil {
		s.SetBBSummary(leader, tierPinned{})
		h.stats.TierPinned++
		return
	}
	s.SetBBSummary(leader, tr)
	h.stats.TraceCompiled++
	if h.bus != nil {
		h.bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerHarrier, Kind: obs.KindBBTrace,
			PID: int32(p.PID), Num: uint64(key.addr), Num2: uint64(len(tr.mops)),
			Str: key.image,
		})
	}
}

// onBBSummary is the Hooks.OnBBSummary handler: a block entry landing
// on an installed trace executes it outright — the fetch loop skips
// the covered instructions entirely. When the remaining quantum cannot
// fit even the first block, the entry is declined and the interpreter
// runs the block with its ordinary hooks: the trace would immediately
// budget-exit at its first mBBEnter without retiring anything. This
// also guarantees the executor that the head block never budget-exits.
func (h *Harrier) onBBSummary(c *isa.CPU, s *isa.Span, leader int, slot any) (isa.SummaryAction, error) {
	tr, ok := slot.(*blockTrace)
	if !ok || tr.owner != h || c.Shadow == nil {
		return isa.SummaryDecline, nil
	}
	if budget := c.TraceBudget; budget > 0 && tr.blocks[0].instrs > budget {
		return isa.SummaryDecline, nil
	}
	return isa.SummaryTrace, h.runTrace(c, tr, c.TraceBudget)
}

// PreExec implements vos.PreExecMonitor: execve is about to tear down
// p's code map, so every trace compiled against its spans is dropped.
// Traces owned by this Harrier count as demotions; pinned markers are
// dropped too (a span surviving via a forked relative may re-attempt
// compilation — compilation is deterministic, so it pins again).
func (h *Harrier) PreExec(p *vos.Process) {
	for _, s := range p.CPU.Code.Spans() {
		for i := range s.Instrs {
			if tr, ok := s.BBSummary(i).(*blockTrace); ok && tr.owner == h {
				h.stats.TierTraceDemoted++
			}
		}
		s.DropSummaries()
	}
}
