package corpus

import (
	"testing"

	hth "repro"
)

// TestTraceDifferentialSweep is the trace tier's correctness gate:
// the full corpus runs on the interpreter tier alone
// (PromoteThreshold=0) and with traces compiled after a single block
// execution, crossed with provenance recording on and off, and the
// sweep signatures must match element-wise in every cell. Detections,
// reported tag sets and injected faults are therefore bit-identical
// whether blocks execute in the interpreter, as compiled traces, or
// bare under a no-op verdict.
func TestTraceDifferentialSweep(t *testing.T) {
	scs := All()
	cell := func(promote int, prov bool) []RunOutcome {
		return RunAllWith(scs, 0, func(_ *Scenario, cfg *hth.Config) {
			cfg.Monitor.PromoteThreshold = promote
			cfg.Provenance = prov
		})
	}
	ref := SweepSignature(cell(0, false))
	for _, c := range []struct {
		name    string
		promote int
		prov    bool
	}{
		{"traces", 1, false},
		{"traces+prov", 1, true},
		{"prov-only", 0, true},
	} {
		got := SweepSignature(cell(c.promote, c.prov))
		for i := range ref {
			if ref[i] != got[i] {
				t.Errorf("%s divergence:\n  base: %s\n  %s: %s", c.name, ref[i], c.name, got[i])
			}
		}
	}
	// The traced cells must actually have exercised the trace tier —
	// and bare runs under value-keyed verdicts — or the comparison
	// proves nothing.
	traced := cell(1, false)
	hits, gated := 0, 0
	for _, o := range traced {
		if o.Result == nil {
			continue
		}
		if o.Result.Stats.TraceHits > 0 {
			hits++
		}
		if o.Result.Stats.GateSkips > 0 {
			gated++
		}
	}
	if hits == 0 {
		t.Fatal("no scenario took the trace tier; differential sweep is vacuous")
	}
	if gated == 0 {
		t.Fatal("no scenario ran bare under a value-keyed verdict; the bare path is untested")
	}
	t.Logf("trace tier exercised by %d/%d scenarios, value-keyed verdicts by %d", hits, len(traced), gated)
}
