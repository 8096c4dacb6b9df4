package corpus

import (
	"strings"
	"testing"

	hth "repro"
	"repro/internal/chaos"
	"repro/internal/secpert"
)

// lurkerSrc is the clean-tier ambush shape: the guest binds a port,
// then runs a hot copy loop over two scratch pages long enough for the
// tier machinery to demote the loop to uninstrumented execution with a
// cached nil-page verdict on both pages. Only then does it accept the
// (chaos-delayed) inbound connection and recv the attacker's payload
// straight onto the loop's source page — the zero→nonzero flip the
// seam must catch — and finally reruns the demoted loop and writes the
// copied bytes to a file, a flow the monitor must still detect.
const lurkerSrc = `
.text
_start:
    mov eax, 102
    mov ebx, 1          ; socket
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], port
    mov eax, 102
    mov ebx, 2          ; bind
    mov ecx, scargs
    int 0x80
    mov eax, 102
    mov ebx, 4          ; listen
    mov ecx, scargs
    int 0x80
    ; hot loop on clean scratch pages: demotes and caches verdicts.
    ; The SAME loop runs again after the recv (ebp is the round flag),
    ; so the second round probes the exact cached ways the first round
    ; installed — the re-instrumentation path, not a fresh proof.
    mov ebp, 0
    xor eax, eax
    mov edi, 0
seed:
    mov ecx, 0x200000
    add ecx, edi
    mov [ecx], eax
    add edi, 4
    cmp edi, 256
    jl seed
    mov esi, 40
pass:
    mov edi, 0
copy:
    mov ecx, 0x200000
    add ecx, edi
    mov eax, [ecx]
    mov [ecx+0x1000], eax
    add edi, 4
    cmp edi, 256
    jl copy
    dec esi
    jnz pass
    cmp ebp, 1
    jz leak
    ; the delayed connection: recv lands on the loop's source page
    mov eax, 102
    mov ebx, 5          ; accept
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], 0x200000
    mov [scargs+8], 16
    mov eax, 102
    mov ebx, 10         ; recv
    mov ecx, scargs
    int 0x80
    ; rerun the demoted loop: it must come back instrumented
    mov ebp, 1
    mov esi, 2
    jmp pass
leak:
    ; leak the copied bytes
    mov ebx, outf
    mov eax, 8          ; creat("loot.txt")
    int 0x80
    mov ebx, eax
    mov ecx, 0x201000
    mov edx, 16
    mov eax, 4          ; write
    int 0x80
    hlt
.data
port: .asciz "0.0.0.0:9009"
outf: .asciz "loot.txt"
scargs: .space 12
`

// TestCleanTierReinstrumentOnDelayedRecv is the end-to-end regression
// for the page-flip seam (the system-level face of taint's
// TestShadowSourceAfterCachedNil): a trace running bare under a cached
// nil-page verdict must be re-instrumented when a chaos-delayed recv
// makes that page go zero→nonzero, and the resulting socket→file flow
// must be reported exactly as the interpreter tier reports it.
func TestCleanTierReinstrumentOnDelayedRecv(t *testing.T) {
	run := func(promote int, plan *chaos.Plan) *hth.Result {
		sys := hth.NewSystem()
		sys.ScheduleConnect(100, "0.0.0.0:9009", "intruder:7777",
			&attackerScript{sends: []string{"DROP-16-BYTES-IN"}})
		sys.MustInstallSource("/bin/lurker", lurkerSrc)
		cfg := hth.DefaultConfig()
		cfg.Monitor.PromoteThreshold = promote
		cfg.Chaos = plan
		res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/lurker"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Seed chosen so the rate-1/2 plan postpones the inbound dial at
	// least once and still delivers it: the verdicts are cached and
	// stale by the time the payload lands.
	plan := &chaos.Plan{Seed: 11, Rate: 0.5, Only: []chaos.Kind{chaos.NetDelay}}
	res := run(1, plan)

	delayed := 0
	for _, f := range res.Chaos {
		if f.Kind == chaos.NetDelay {
			delayed++
		}
	}
	if delayed == 0 {
		t.Fatal("plan injected no NetDelay: the recv was not delayed")
	}
	if res.Stats.CleanHits == 0 {
		t.Fatal("loop never demoted to the clean tier before the recv")
	}
	if res.Stats.Reinstrumented == 0 {
		t.Fatal("page flip did not re-instrument the demoted loop")
	}
	leak := false
	for _, w := range res.Warnings {
		if w.Severity >= secpert.High && strings.Contains(w.Message, "To: loot.txt") &&
			strings.Contains(w.Message, "intruder:7777") {
			leak = true
		}
	}
	if !leak {
		t.Fatalf("socket->file flow not detected; warnings: %+v", res.Warnings)
	}

	// Bare runs must not change what is reported: same warnings as the
	// interpreter tier under the identical chaos plan.
	ref := run(0, plan)
	if len(ref.Warnings) != len(res.Warnings) {
		t.Fatalf("warning count diverged: traces %d, interpreter %d",
			len(res.Warnings), len(ref.Warnings))
	}
	for i := range ref.Warnings {
		if ref.Warnings[i].Message != res.Warnings[i].Message {
			t.Errorf("warning %d diverged:\n  interpreter: %s\n  traces:      %s",
				i, ref.Warnings[i].Message, res.Warnings[i].Message)
		}
	}
}
