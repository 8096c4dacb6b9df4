package harrier

// CheckCompileDeterministic exposes the trace compiler's determinism
// check to the corpus-wide property test (corpus_test.go), which lives
// in the external test package because it imports the corpus.
var CheckCompileDeterministic = checkCompileDeterministic
