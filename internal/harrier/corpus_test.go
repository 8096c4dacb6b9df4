package harrier_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/harrier"
)

// TestTraceCompileDeterministic is the trace compiler's property test
// over real code: every block leader of every span the corpus loads
// compiles twice to the same trace — the same mops and the same
// clean-tier footprint — or pins both times.
func TestTraceCompileDeterministic(t *testing.T) {
	compiled, pinned := 0, 0
	for _, sc := range corpus.All() {
		res, err := sc.Run()
		if err != nil || res == nil || res.Process == nil {
			continue
		}
		for _, s := range res.Process.CPU.Code.Spans() {
			c, p := harrier.CheckCompileDeterministic(t, s)
			compiled += c
			pinned += p
		}
	}
	if compiled == 0 {
		t.Fatal("no block compiled anywhere in the corpus; property test is vacuous")
	}
	t.Logf("corpus blocks: %d compiled, %d pinned", compiled, pinned)
}
