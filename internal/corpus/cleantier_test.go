package corpus

import (
	"testing"

	hth "repro"
)

// TestCleanTierDifferentialSweep is the clean tier's correctness gate,
// one rung above TestTraceDifferentialSweep: the full corpus (ELF
// fixtures included) runs on the interpreter tier alone
// (PromoteThreshold=0) and with traces compiled after a single block
// execution, the clean tier off and on, and the sweep signatures must
// match element-wise in every cell. Detections, reported tag sets,
// warning order and guest faults are therefore bit-identical whether
// a block executes instrumented (interpreter, trace) or demoted to the
// uninstrumented clean variant — the tier can only ever skip transfer
// that was proven a no-op, never a detection.
func TestCleanTierDifferentialSweep(t *testing.T) {
	scs := All()
	cell := func(promote, cleanThreshold int) []RunOutcome {
		return RunAllWith(scs, 0, func(_ *Scenario, cfg *hth.Config) {
			cfg.Monitor.PromoteThreshold = promote
			cfg.Monitor.CleanThreshold = cleanThreshold
		})
	}
	ref := SweepSignature(cell(0, 0))
	clean := cell(1, 1)
	for _, c := range []struct {
		name string
		outs []RunOutcome
	}{
		{"traces", cell(1, 0)},
		{"clean+traces", clean},
	} {
		got := SweepSignature(c.outs)
		for i := range ref {
			if ref[i] != got[i] {
				t.Errorf("%s divergence:\n  base: %s\n  %s: %s", c.name, ref[i], c.name, got[i])
			}
		}
	}
	// The clean cell must actually have demoted traces — and the
	// re-instrumentation seam must have fired somewhere — or the
	// comparison proves nothing.
	hits, reinst := 0, 0
	for _, o := range clean {
		if o.Result == nil {
			continue
		}
		if o.Result.Stats.CleanHits > 0 {
			hits++
		}
		if o.Result.Stats.Reinstrumented > 0 {
			reinst++
		}
	}
	if hits == 0 {
		t.Fatal("no scenario took the clean tier; differential sweep is vacuous")
	}
	t.Logf("clean tier exercised by %d/%d scenarios, re-instrumentation by %d",
		hits, len(clean), reinst)
}
