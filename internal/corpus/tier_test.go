package corpus

import (
	"testing"

	hth "repro"
)

// TestTierDifferentialSweep is the tiered engine's correctness gate:
// the full corpus runs twice, once with every block pinned to the
// interpreter tier (PromoteThreshold=0) and once with promotion after
// a single execution (PromoteThreshold=1), and the sweep signatures —
// executed steps, scheduler outcome, reproduction problems, injected
// faults, and an FNV-64a hash over the full warning text — must match
// element-wise. Detections and reported tag sets are therefore
// bit-identical across tiers for every scenario in the corpus.
func TestTierDifferentialSweep(t *testing.T) {
	scs := All()
	interp := RunAllWith(scs, 0, func(_ *Scenario, cfg *hth.Config) {
		cfg.Monitor.PromoteThreshold = 0
	})
	tiered := RunAllWith(scs, 0, func(_ *Scenario, cfg *hth.Config) {
		cfg.Monitor.PromoteThreshold = 1
	})
	a, b := SweepSignature(interp), SweepSignature(tiered)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("tier divergence:\n  interpreter: %s\n  tiered:      %s", a[i], b[i])
		}
	}
	// The tiered sweep must actually have exercised the compiled
	// tiers, or the comparison proves nothing.
	promoted := 0
	for _, o := range tiered {
		if o.Result != nil && o.Result.Stats.TraceHits+o.Result.Stats.CleanHits > 0 {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("no scenario took a compiled tier; differential sweep is vacuous")
	}
}
