package secpert

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/events"
	"repro/internal/expert"
	"repro/internal/taint"
)

// The compiled policy is shared by every Secpert of a rule-set shape.
// These tests hold that sharing invisible: concurrent runs with
// different configurations must each see exactly what a run on a
// freshly compiled, private program sees, and a rule one run adds must
// never reach another.

// isolationJobs differ in everything a rule reads at match time, and
// in both rule-set shape switches.
func isolationJobs() []struct {
	name string
	cfg  func() Config
} {
	with := func(edit func(*Config)) func() Config {
		return func() Config {
			cfg := DefaultConfig()
			edit(&cfg)
			return cfg
		}
	}
	return []struct {
		name string
		cfg  func() Config
	}{
		{"default", with(func(*Config) {})},
		{"trusted", with(func(c *Config) {
			c.TrustedBinaries = append(c.TrustedBinaries, "/bin/evil")
		})},
		{"clone-low", with(func(c *Config) { c.CloneCountHigh, c.CloneRateHigh = 3, 2 })},
		{"clone-off", with(func(c *Config) { c.CloneCountHigh, c.CloneRateHigh = 100, 100 })},
		{"no-infoflow", with(func(c *Config) { c.DisableInfoFlow = true })},
		{"mem", with(func(c *Config) {
			c.EnableMemoryAbuse, c.MemHighBytes, c.MemVeryHighBytes = true, 1000, 5000
		})},
		{"mem-no-infoflow", with(func(c *Config) { c.EnableMemoryAbuse, c.DisableInfoFlow = true, true })},
		{"history", with(func(c *Config) {
			h := NewHistory()
			h.commit([]string{"/tmp/dropped"})
			h.Approve(&Warning{Rule: "check_write", Message: "Found Write call to /tmp/out"})
			c.History = h
		})},
	}
}

// isolationScript is one run's event stream: it reaches every rule and
// the thresholds the jobs move.
func isolationScript(s *Secpert) {
	evil := []taint.Source{src(taint.Binary, "/bin/evil")}
	openFile(s, "/etc/secret", evil...)
	s.HandleAccess(execveEvent(evil...))
	s.HandleAccess(&events.Access{
		Call: "SYS_execve", PID: 2, Time: 120,
		Resource: events.Ref{Name: "/tmp/dropped", Type: taint.File,
			Origin: []taint.Source{src(taint.UserInput, "argv")}},
	})
	for n := int64(1); n <= 10; n++ {
		s.HandleAccess(cloneEvent(n, n/2))
	}
	for _, mem := range []int64{500, 2000, 6000, 2 << 20, 20 << 20} {
		s.HandleAccess(brkEvent(mem))
	}
	s.HandleIO(writeEvent("/tmp/out", taint.File, evil, src(taint.File, "/etc/secret"), evil[0]))
	s.HandleIO(writeEvent("evil:80", taint.Socket, evil, src(taint.UserInput, "stdin")))
	s.HandleIO(writeEvent("stdout", taint.File, nil, evil[0]))
	read := writeEvent("/etc/secret", taint.File, evil, evil[0])
	read.Dir = events.Read
	s.HandleIO(read)
}

// runOutcome renders a run's warnings and fire trace.
func runOutcome(s *Secpert) string {
	var b strings.Builder
	for _, w := range s.Warnings() {
		fmt.Fprintf(&b, "%s %s %s pid=%d t=%d ids=%v\n", w.Severity, w.Category, w.Rule, w.PID, w.Time, w.FactIDs)
		fmt.Fprintf(&b, "  %s\n", w.Message)
	}
	fmt.Fprintf(&b, "suppressed %d\n", s.Suppressed())
	for _, fr := range s.Trace() {
		fmt.Fprintln(&b, fr)
	}
	return b.String()
}

func TestSharedPolicyIsolation(t *testing.T) {
	jobs := isolationJobs()
	// The oracle: each job alone, on a program compiled just for it.
	want := make([]string, len(jobs))
	for i, j := range jobs {
		cfg := j.cfg()
		s := newWith(cfg, nil, compilePolicy(cfg.DisableInfoFlow, cfg.EnableMemoryAbuse))
		isolationScript(s)
		want[i] = runOutcome(s)
		if len(s.Warnings()) == 0 {
			t.Fatalf("job %s raised no warning; the script lost its teeth", j.name)
		}
		for k := 0; k < i; k++ {
			if want[k] == want[i] {
				t.Fatalf("jobs %s and %s have the same outcome; they do not test isolation", jobs[k].name, j.name)
			}
		}
	}
	// Every job several times over, all at once, on the shared programs.
	const reps = 4
	got := make([]string, len(jobs)*reps)
	var wg sync.WaitGroup
	for r := 0; r < reps; r++ {
		for i, j := range jobs {
			wg.Add(1)
			go func(slot int, cfg Config) {
				defer wg.Done()
				s := New(cfg, nil)
				isolationScript(s)
				got[slot] = runOutcome(s)
			}(r*len(jobs)+i, j.cfg())
		}
	}
	wg.Wait()
	for slot, out := range got {
		i := slot % len(jobs)
		if out != want[i] {
			t.Errorf("job %s (rep %d) on the shared policy:\n%s\nwant (private program):\n%s",
				jobs[i].name, slot/len(jobs), out, want[i])
		}
	}
}

func TestEngineDefRuleStaysWithItsRun(t *testing.T) {
	probed := 0
	a := New(DefaultConfig(), nil)
	if err := a.Engine().DefTemplate(&expert.Template{Name: "probe_fact"}); err != nil {
		t.Fatal(err)
	}
	err := a.Engine().DefRule(&expert.Rule{
		Name:     "probe",
		Patterns: []expert.Pattern{expert.P("system_call_access", expert.S("pid", expert.Var("pid")))},
		Action:   func(*expert.Context, *expert.Bindings) { probed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	a.HandleAccess(execveEvent(src(taint.Binary, "/bin/evil")))
	if probed != 1 || !slices.ContainsFunc(a.Trace(), func(fr expert.FireRecord) bool { return fr.Rule == "probe" }) {
		t.Fatalf("the added rule did not fire on its own run (fired %d)", probed)
	}
	if len(a.Warnings()) != 1 {
		t.Errorf("the policy's own rules stopped on the run that added one: %v", a.Warnings())
	}

	b := New(DefaultConfig(), nil)
	b.HandleAccess(execveEvent(src(taint.Binary, "/bin/evil")))
	for _, fr := range b.Trace() {
		if fr.Rule == "probe" {
			t.Errorf("a later run fired the rule another run added: %v", b.Trace())
		}
	}
	if probed != 1 {
		t.Errorf("the added rule's action ran %d times, want 1", probed)
	}
	if _, err := b.Engine().Assert("probe_fact", nil); err == nil {
		t.Error("a later run sees the template another run added")
	}
	if err := b.Engine().DefRule(&expert.Rule{Name: "probe"}); err != nil {
		t.Errorf("a later run cannot define a rule named like another run's: %v", err)
	}
}
