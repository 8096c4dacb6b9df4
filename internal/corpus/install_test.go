package corpus

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/guestlib"
	"repro/internal/image"
)

// TestInstallSourceEquivalence pins the text frontend that
// System.InstallSource routes through: image.DecodeAs("asm", ...)
// must be exactly asm.Assemble on the same source — the same image,
// deep-equal, for corpus programs and the guest libraries, and the
// identical diagnostic for a program that fails to assemble (the
// registry wraps nothing around compile errors: a bad program is not a
// malformed container).
func TestInstallSourceEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		bad       bool
	}{
		{"/bin/cat", catLike, false},
		{"/bin/pwunsafe", pwunsafe, false},
		{guestlib.LibcName, guestlib.LibcSrc, false},
		{guestlib.LdName, guestlib.LdSrc, false},
		{"/bin/bad", ".text\n_start:\n    bogus eax, 1\n", true},
	} {
		want, wantErr := asm.Assemble(tc.name, tc.src)
		got, gotErr := image.DecodeAs("asm", tc.name, []byte(tc.src))
		if (wantErr != nil) != tc.bad {
			t.Fatalf("%s: assembler error %v, want failure %v", tc.name, wantErr, tc.bad)
		}
		if tc.bad {
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%s: diagnostics diverged:\n asm:      %v\n registry: %v", tc.name, wantErr, gotErr)
			}
			continue
		}
		if gotErr != nil {
			t.Fatalf("%s: registry rejected a program the assembler accepts: %v", tc.name, gotErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: registry image differs from the assembler's", tc.name)
		}
	}
}
