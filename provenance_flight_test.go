package hth_test

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hth "repro"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestProvenanceChainGolden pins one causal chain byte-for-byte: the
// trojan run is deterministic, so the rendered Report — warning plus
// its indented provenance chains — must be stable across refactors of
// the recorder. Regenerate deliberately with -update.
func TestProvenanceChainGolden(t *testing.T) {
	sys := trojanSystem()
	res, err := sys.Run(hth.NewConfig(hth.WithProvenance()), hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("trojan run produced no warnings")
	}
	for _, w := range res.Warnings {
		if len(w.Chain) == 0 {
			t.Fatalf("warning %q has no provenance chain", w.Rule)
		}
	}
	got := []byte(res.Report())
	golden := filepath.Join("testdata", "provenance_chain.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("provenance report diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestProvenanceOffReportUnchanged guards the default path: with
// provenance off the warnings carry no chains and Report stays
// byte-identical to the pre-provenance format.
func TestProvenanceOffReportUnchanged(t *testing.T) {
	res, err := trojanSystem().Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Provenance != nil {
		t.Error("Result.Provenance set on a provenance-off run")
	}
	for _, w := range res.Warnings {
		if w.Chain != nil {
			t.Errorf("provenance-off warning %q carries chain %v", w.Rule, w.Chain)
		}
	}
	if strings.Contains(res.Report(), "chain:") {
		t.Errorf("provenance-off Report mentions chains:\n%s", res.Report())
	}
}

// TestFlightDumpOnWarning: a rule fire must trigger the automatic
// flight dump, and the gzipped dump must replay to the same events the
// Result carries.
func TestFlightDumpOnWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl.gz")
	res, err := trojanSystem().Run(hth.NewConfig(hth.WithFlightDump(path)), hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("trojan run produced no warnings; dump trigger untested")
	}
	if len(res.Flight) == 0 {
		t.Fatal("Result.Flight is empty")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	defer f.Close()
	r, err := obs.MaybeGzip(f)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []hth.Event
	if err := obs.ReadJSONL(r, func(e hth.Event) error {
		replayed = append(replayed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(res.Flight) {
		t.Fatalf("dump replayed %d events, Result.Flight has %d", len(replayed), len(res.Flight))
	}
	for i := range replayed {
		if replayed[i] != res.Flight[i] {
			t.Fatalf("dump event %d = %+v, Result.Flight has %+v", i, replayed[i], res.Flight[i])
		}
	}
}

// TestFlightNotDumpedOnCleanRun: a run with no warnings, faults, or
// chaos must not leave a dump behind.
func TestFlightNotDumpedOnCleanRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl.gz")
	res, err := trojanSystem().Run(hth.NewConfig(hth.WithFlightDump(path)), hth.RunSpec{Path: "/bin/ls"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("clean run warned: %v", res.Warnings)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("clean run dumped the flight recorder (stat err = %v)", err)
	}
	// The ring is still returned for inspection.
	if len(res.Flight) == 0 {
		t.Error("Result.Flight empty on a recorded run")
	}
}

// TestIntrospectionEndToEnd is the live-curl acceptance check:
// configure introspection on an ephemeral port, run the trojan, and
// fetch /metrics and /flight from the still-serving endpoint.
func TestIntrospectionEndToEnd(t *testing.T) {
	res, err := trojanSystem().Run(
		hth.NewConfig(hth.WithProvenance(), hth.WithIntrospection("127.0.0.1:0")),
		hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Introspection == nil {
		t.Fatal("Result.Introspection is nil")
	}
	defer res.Introspection.Shutdown()
	base := "http://" + res.Introspection.Addr()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{"hth_syscalls_total", "hth_warnings_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(base + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	if err := obs.ReadJSONL(resp.Body, func(hth.Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("/flight replayed no events after a run")
	}
}

// TestIntrospectionBadAddr: an unbindable address must fail the run
// with a configuration error, not a guest fault.
func TestIntrospectionBadAddr(t *testing.T) {
	_, err := trojanSystem().Run(
		hth.NewConfig(hth.WithIntrospection("256.0.0.1:bogus")),
		hth.RunSpec{Path: "/bin/trojan"})
	if err == nil {
		t.Fatal("unbindable introspection address accepted")
	}
	if !strings.Contains(err.Error(), "introspection") {
		t.Errorf("error does not mention introspection: %v", err)
	}
}

// hwLoopSrc reads CPUID and RDTSC inside a hot loop, neither at the
// loop head, and writes the hardware values to a hardcoded file. The
// loop keeps its counter in memory and zeroes every register before
// the back edge, so no source is live in a register at a block entry:
// the HARDWARE chain is made of entry hops alone, each stamped with
// its instruction's time.
const hwLoopSrc = `
.text
_start:
    mov [count], 12
loop:
    nop
    cpuid
    mov [buf], eax
    rdtsc
    mov [buf+4], eax
    xor eax, eax
    xor ebx, ebx
    xor ecx, ecx
    xor edx, edx
    dec [count]
    cmp [count], 0
    jnz loop
` + hwWriteOut

// hwCleanLoopSrc is the clean-tier variant: the loop only re-reads the
// hardware into registers that already carry HARDWARE, so its taint
// transfer is a proven no-op and the trace runs uninstrumented, with
// consecutive runs fused into one dispatch.
const hwCleanLoopSrc = `
.text
_start:
    mov esi, 300
    cpuid
    rdtsc
loop:
    nop
    cpuid
    nop
    rdtsc
    dec esi
    cmp esi, 0
    jnz loop
    mov [buf], eax
    mov [buf+4], edx
` + hwWriteOut

// hwWriteOut writes buf to a hardcoded file and exits.
const hwWriteOut = `
    mov ebx, path
    mov eax, 8          ; creat
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 8
    mov eax, 4          ; write the hardware values
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80
.data
count: .space 4
buf:   .space 8
path:  .asciz "hw.log"
`

// TestHardwareProvenanceTimeInTrace: the hardware entry hops a
// compiled trace records — instrumented or clean — must carry the
// same instruction times as the interpreter's, so a warning's chains
// are identical with and without trace promotion. In the clean leg
// sources stay live in registers across blocks, and block hops a trace
// records are marked "(tier)" and merge only with each other; that leg
// compares the HARDWARE chain alone, with the marker dropped.
func TestHardwareProvenanceTimeInTrace(t *testing.T) {
	untier := strings.NewReplacer(" (tier)", "", "(tier ×", "(×")
	for _, leg := range []struct {
		name, src string
		clean     bool
	}{
		{"trace", hwLoopSrc, false},
		{"clean", hwCleanLoopSrc, true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			chains := func(promote int) (string, *hth.Result) {
				sys := hth.NewSystem()
				sys.MustInstallSource("/bin/hwloop", leg.src)
				cfg := hth.NewConfig(hth.WithProvenance())
				cfg.Monitor.PromoteThreshold = promote
				res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/hwloop"})
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for _, w := range res.Warnings {
					for _, ch := range w.Chain {
						if !leg.clean || strings.HasPrefix(ch, "HARDWARE:") {
							out = append(out, ch)
						}
					}
				}
				return strings.Join(out, "\n"), res
			}
			interp, _ := chains(0)
			traced, res := chains(1)
			if hits := res.Stats.TraceHits + res.Stats.CleanHits; hits == 0 || leg.clean && res.Stats.CleanHits == 0 {
				t.Fatalf("trace hits %d, clean hits %d: the comparison is vacuous",
					res.Stats.TraceHits, res.Stats.CleanHits)
			}
			if !strings.Contains(interp, "cpuid @t=") || !strings.Contains(interp, "rdtsc @t=") {
				t.Fatalf("no hardware entry hops in the chains: %q", interp)
			}
			if leg.clean {
				traced = untier.Replace(traced)
			}
			if traced != interp {
				t.Errorf("chains differ with traces on:\n  interpreter: %q\n  traced:      %q", interp, traced)
			}
		})
	}
}
