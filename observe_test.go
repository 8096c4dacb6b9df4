// Tests for the observability API: functional options, the event bus
// wired through every layer, sink composition, the CLIPS transcript
// golden, and the metrics registry surfaced in Result.Metrics.
package hth_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	hth "repro"
	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/obs"
)

func trojanSystem() *hth.System {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/ls", lsSrc)
	sys.MustInstallSource("/bin/trojan", trojanSrc)
	return sys
}

func TestNewConfigOptions(t *testing.T) {
	var sink obs.Collector
	plan := &chaos.Plan{Seed: 1}
	cfg := hth.NewConfig(
		hth.WithUnmonitored(),
		hth.WithMaxSteps(123),
		hth.WithChaos(plan),
		hth.WithMaxOpenFDs(-1),
		hth.WithObserver(&sink),
		hth.WithObserver(hth.NewMetrics()),
	)
	if !cfg.Unmonitored || cfg.MaxSteps != 123 || cfg.Chaos != plan || cfg.MaxOpenFDs != -1 {
		t.Errorf("options not applied: %+v", cfg)
	}
	if len(cfg.Observers) != 2 {
		t.Errorf("WithObserver should accumulate, got %d observers", len(cfg.Observers))
	}
}

// TestEventStreamShape runs the canonical trojan guest with a
// collecting observer and checks the stream's structural guarantees:
// bracketing run.start/run.end, strictly increasing Seq, monotone
// virtual time per pid, and the expected per-layer events.
func TestEventStreamShape(t *testing.T) {
	var c obs.Collector
	res, err := trojanSystem().Run(
		hth.NewConfig(hth.WithObserver(&c)),
		hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) == 0 {
		t.Fatal("no events published")
	}
	first, last := c.Events[0], c.Events[len(c.Events)-1]
	if first.Kind != obs.KindRunStart || first.Str != "/bin/trojan" {
		t.Errorf("first event = %+v, want run.start", first)
	}
	if last.Kind != obs.KindRunEnd || last.Str != "clean" || last.Num != res.TotalSteps {
		t.Errorf("last event = %+v, want clean run.end with %d instrs", last, res.TotalSteps)
	}

	lastTime := map[int32]uint64{}
	counts := map[obs.Kind]int{}
	for i, e := range c.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d: Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Time < lastTime[e.PID] {
			t.Errorf("event %d: virtual time went backwards for pid %d (%d < %d)",
				i, e.PID, e.Time, lastTime[e.PID])
		}
		lastTime[e.PID] = e.Time
		counts[e.Kind]++
	}
	// The trojan execs /bin/ls in place (one process, one exit); the
	// execve is traced by vos and fired on by secpert. Non-returning
	// calls (execve, exit) publish an enter but no exit.
	if counts[obs.KindProcSpawn] != 1 || counts[obs.KindProcExit] != 1 {
		t.Errorf("spawn/exit = %d/%d, want 1/1", counts[obs.KindProcSpawn], counts[obs.KindProcExit])
	}
	if counts[obs.KindSyscallEnter] == 0 ||
		counts[obs.KindSyscallExit] > counts[obs.KindSyscallEnter] {
		t.Errorf("syscall enter/exit = %d/%d",
			counts[obs.KindSyscallEnter], counts[obs.KindSyscallExit])
	}
	if counts[obs.KindRuleFire] != 1 || counts[obs.KindWarning] != 1 {
		t.Errorf("rule.fire/warning = %d/%d, want 1/1",
			counts[obs.KindRuleFire], counts[obs.KindWarning])
	}
	if counts[obs.KindSchedEnd] != 1 {
		t.Errorf("sched.end = %d, want 1", counts[obs.KindSchedEnd])
	}
}

// pmaTranscriptGolden holds the CLIPS transcript of the corpus's pma
// scenario (paper Appendix A): every asserted event fact interleaved
// with the rule-fire trace and warning printout. It pins the
// CLIPSText/CLIPSTranscript sinks byte for byte.
const pmaTranscriptGolden = "testdata/pma.transcript.golden"

func readPMATranscript(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(pmaTranscriptGolden)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCLIPSTextByteIdentical is the golden test of the CLIPS sinks:
// CLIPSTranscript renders the pma transcript byte for byte, and
// CLIPSText renders it without the assert echo lines.
func TestCLIPSTextByteIdentical(t *testing.T) {
	golden := readPMATranscript(t)
	sc, ok := corpus.ByName("pma")
	if !ok {
		t.Fatal("pma scenario missing")
	}
	run := func(sink hth.Observer) {
		if _, err := sc.RunWith(hth.WithObserver(sink)); err != nil {
			t.Fatal(err)
		}
	}

	var tr bytes.Buffer
	run(hth.CLIPSTranscript(&tr))
	if tr.String() != golden {
		t.Errorf("CLIPSTranscript diverges from the golden:\n--- golden ---\n%s--- sink ---\n%s", golden, tr.String())
	}

	var text bytes.Buffer
	run(hth.CLIPSText(&text))
	var want strings.Builder
	for _, line := range strings.SplitAfter(golden, "\n") {
		if !strings.HasPrefix(line, "CLIPS> (assert") {
			want.WriteString(line)
		}
	}
	if text.String() != want.String() {
		t.Errorf("CLIPSText diverges from the golden without asserts:\n--- want ---\n%s--- CLIPSText ---\n%s",
			want.String(), text.String())
	}
	if !strings.Contains(text.String(), "FIRE 1 check_write") {
		t.Errorf("no fire trace in output: %q", text.String())
	}
}

// TestSessionHonorsTraceAsserts is the regression test for the bug
// where NewSession dropped the assert echo: both Run and Session share
// runCore, so a session renders the same transcript as a run.
func TestSessionHonorsTraceAsserts(t *testing.T) {
	sc, ok := corpus.ByName("pma")
	if !ok {
		t.Fatal("pma scenario missing")
	}
	sys := hth.NewSystem()
	sc.Setup(sys)
	var out bytes.Buffer
	cfg := hth.NewConfig(hth.WithObserver(hth.CLIPSTranscript(&out)))
	if sc.Tweak != nil {
		sc.Tweak(&cfg)
	}
	sn := sys.NewSession(cfg)
	if _, err := sn.Start(sc.Spec); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Wait(); err != nil {
		t.Fatal(err)
	}
	if golden := readPMATranscript(t); out.String() != golden {
		t.Errorf("session transcript diverges from the golden:\n--- golden ---\n%s--- session ---\n%s", golden, out.String())
	}
}

// TestChaosFaultsOnBus asserts every fault in Result.Chaos also
// appears as a chaos.fault bus event, payload matching.
func TestChaosFaultsOnBus(t *testing.T) {
	var c obs.Collector
	sys := readerSystem()
	cfg := hth.NewConfig(
		hth.WithChaos(&chaos.Plan{Seed: 7, Rate: 1, Only: []chaos.Kind{chaos.ReadErr}}),
		hth.WithObserver(&c),
	)
	res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/reader"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chaos) == 0 {
		t.Fatal("no faults injected")
	}
	var events []obs.Event
	for _, e := range c.Events {
		if e.Kind == obs.KindChaosFault {
			events = append(events, e)
		}
	}
	if len(events) != len(res.Chaos) {
		t.Fatalf("chaos.fault events = %d, Result.Chaos = %d", len(events), len(res.Chaos))
	}
	for i, f := range res.Chaos {
		e := events[i]
		if e.Str != f.Kind.String() || e.Num != uint64(f.Errno) ||
			int(e.PID) != f.PID || e.Time != f.Clock {
			t.Errorf("fault %d: event %+v does not match fault %+v", i, e, f)
		}
	}
}

// TestResultMetrics checks Result.Metrics snapshots an attached
// registry — including one wrapped in a Sampling decorator.
func TestResultMetrics(t *testing.T) {
	m := hth.NewMetrics()
	res, err := trojanSystem().Run(
		hth.NewConfig(hth.WithObserver(m)),
		hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics is nil with a Metrics observer attached")
	}
	if res.Metrics.Counters["syscall.SYS_execve"] != 1 {
		t.Errorf("syscall.SYS_execve = %d, want 1", res.Metrics.Counters["syscall.SYS_execve"])
	}
	if res.Metrics.Counters["warning.check_execve"] != 1 {
		t.Errorf("warning.check_execve = %d, want 1", res.Metrics.Counters["warning.check_execve"])
	}
	if res.Metrics.Gauges["harrier.instructions"] == 0 {
		t.Error("harrier.instructions gauge missing")
	}
	if res.Metrics.Gauges["guest_instrs_per_sec"] == 0 {
		t.Error("guest_instrs_per_sec gauge missing")
	}

	// No observers -> nil Metrics and a disabled bus.
	res, err = trojanSystem().Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Error("Result.Metrics set without observers")
	}
}

// TestJSONLTraceReplayable records a run as JSONL and replays it with
// obs.ReadJSONL — the same path `hth-trace -replay` uses.
func TestJSONLTraceReplayable(t *testing.T) {
	var buf bytes.Buffer
	_, err := trojanSystem().Run(
		hth.NewConfig(hth.WithObserver(hth.JSONL(&buf))),
		hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var sawWarning bool
	err = obs.ReadJSONL(&buf, func(e obs.Event) error {
		n++
		if e.Kind == obs.KindWarning && e.Str == "check_execve" {
			sawWarning = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || !sawWarning {
		t.Errorf("replayed %d events, warning seen = %v", n, sawWarning)
	}
}
