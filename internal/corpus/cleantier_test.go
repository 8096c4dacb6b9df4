package corpus

import (
	"testing"

	hth "repro"
)

// TestCleanTierDifferentialSweep is the verdict cache's correctness
// gate, one rung above TestTraceDifferentialSweep: the full corpus
// (ELF fixtures included) runs on the interpreter tier alone
// (PromoteThreshold=0) and with traces compiled after a single block
// execution, and the sweep signatures must match element-wise.
// Detections, reported tag sets, warning order and guest faults are
// therefore bit-identical whether a block executes instrumented or
// bare under a no-op verdict — a verdict can only ever skip transfer
// that was proven a no-op, never a detection.
func TestCleanTierDifferentialSweep(t *testing.T) {
	scs := All()
	cell := func(promote int) []RunOutcome {
		return RunAllWith(scs, 0, func(_ *Scenario, cfg *hth.Config) {
			cfg.Monitor.PromoteThreshold = promote
		})
	}
	ref := SweepSignature(cell(0))
	traced := cell(1)
	got := SweepSignature(traced)
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("divergence:\n  interpreter: %s\n  traces:      %s", ref[i], got[i])
		}
	}
	// Both verdict forms must actually have served bare runs — and the
	// re-instrumentation seam must have fired somewhere — or the
	// comparison proves nothing.
	paged, valued, reinst := 0, 0, 0
	for _, o := range traced {
		if o.Result == nil {
			continue
		}
		st := o.Result.Stats
		if st.CleanDemoted > 0 && st.CleanHits > 0 {
			paged++
		}
		if st.GateSkips > 0 {
			valued++
		}
		if st.Reinstrumented > 0 {
			reinst++
		}
	}
	if paged == 0 {
		t.Fatal("no scenario ran bare under a page-keyed verdict; differential sweep is vacuous")
	}
	if valued == 0 {
		t.Fatal("no scenario ran bare under a value-keyed verdict; differential sweep is vacuous")
	}
	t.Logf("page-keyed verdicts served %d/%d scenarios, value-keyed %d, re-instrumentation %d",
		paged, len(traced), valued, reinst)
}
