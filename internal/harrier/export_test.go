package harrier

// CheckCompileDeterministic exposes the trace compiler's determinism
// check to the corpus-wide property test (corpus_test.go), which lives
// in the external test package because it imports the corpus.
var CheckCompileDeterministic = checkCompileDeterministic

// withoutVerdicts switches h's no-op verdict cache off: traces it
// compiles afterwards run the full taint transfer on every entry. The
// differential tests use it as the trace-only reference.
func (h *Harrier) withoutVerdicts() { h.noVerdicts = true }
