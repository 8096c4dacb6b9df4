package hth_test

import (
	"strings"
	"testing"

	hth "repro"
	"repro/internal/asm"
)

// TestInstallSourceDiagnosticsEquivalence pins the error surface: a
// program that fails to assemble must report through InstallSource
// exactly the diagnostic the assembler itself produces — the format
// registry wraps nothing around compile errors (a bad program is not
// a malformed container). The image side of the equivalence is
// internal/corpus's TestInstallSourceEquivalence.
func TestInstallSourceDiagnosticsEquivalence(t *testing.T) {
	const bad = ".text\n_start:\n    bogus eax, 1\n"
	_, asmErr := asm.Assemble("/bin/bad", bad)
	installErr := hth.NewSystem().InstallSource("/bin/bad", bad)
	if asmErr == nil || installErr == nil {
		t.Fatalf("bad program accepted: asm=%v install=%v", asmErr, installErr)
	}
	if asmErr.Error() != installErr.Error() {
		t.Errorf("diagnostics diverged:\n asm:     %s\n install: %s", asmErr, installErr)
	}
	if !strings.Contains(installErr.Error(), "bogus") {
		t.Errorf("diagnostic does not name the offending mnemonic: %s", installErr)
	}
}
