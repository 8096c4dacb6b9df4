package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestSameSeedSameJobs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := genJobs(w, 7), genJobs(w, 7), genJobs(w, 8)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: job lists of %d and %d jobs", w, len(a), len(b))
		}
		same := true
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Fatalf("%s: job %d differs under one seed: %s vs %s", w, i, a[i], b[i])
			}
			if a[i].Guest != nil && (a[i].Guest.Src != b[i].Guest.Src || !bytes.Equal(a[i].Guest.Stdin, b[i].Guest.Stdin)) {
				t.Fatalf("%s: job %d inputs differ under one seed", w, i)
			}
			same = same && i < len(c) && a[i].String() == c[i].String()
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w)
		}
	}
}

// TestOracleAgreesWithGuests runs every guest-loops stratum and every
// event-storm kind once and checks the Go oracle against the guest.
func TestOracleAgreesWithGuests(t *testing.T) {
	b := &bench{}
	jobs := genJobs("guest-loops", 3)
	for _, j := range genJobs("event-storm", 3) {
		if j.Guest.Class == 0 {
			jobs = append(jobs, j)
		}
	}
	for _, j := range jobs {
		v := b.runDirect(j, nil)
		if v.failed != "" || v.mismatch != "" {
			t.Errorf("%s: %s%s", j, v.failed, v.mismatch)
		}
	}
	// The oracle is not vacuous: a different pass count changes the
	// checksum, and a different stdin byte changes the copied sum.
	var cksum, copied *guest
	for _, j := range jobs {
		g := j.Guest
		if g.Kind == "checksum" && cksum == nil {
			cksum = g
		}
		if g.Kind == "copy" && g.Density == "dense" && copied == nil {
			copied = g
		}
	}
	g := *cksum
	g.Iters++
	if g.expected() == cksum.expected() {
		t.Errorf("%+v: oracle ignores the pass count", cksum)
	}
	g = *copied
	g.Stdin = append([]byte(nil), copied.Stdin...)
	g.Stdin[0] ^= 1
	if g.expected() == copied.expected() {
		t.Errorf("%+v: oracle ignores stdin", copied)
	}
}

// TestStormOracleCatchesSilentFailure breaks the read storm guest: it
// opens a file that is not there, so it reads nothing and, like a
// working read guest, draws no warning. The event count must catch it.
func TestStormOracleCatchesSilentFailure(t *testing.T) {
	g := &guest{Kind: "read", Reps: 20}
	g.Src = strings.Replace(stormSrc(g), `"`+stormInput+`"`, `"missing.in"`, 1)
	v := (&bench{}).runDirect(job{Guest: g}, nil)
	if v.failed != "" || v.mismatch == "" {
		t.Errorf("broken read guest: failed %q, mismatch %q; want a mismatch", v.failed, v.mismatch)
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames asserts the emitted metrics are exactly the declared ones,
// with matching units.
func checkNames(t *testing.T, kind string, emitted map[string]string, declared []struct{ Name, Unit string }) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, unit := range emitted {
		if !metricName.MatchString(name) {
			t.Errorf("%s metric %q: bad name", kind, name)
		}
		if u, ok := want[name]; !ok {
			t.Errorf("%s metric %q missing from BENCHMARK.json", kind, name)
		} else if u != unit {
			t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, name, unit, u)
		}
	}
	for name := range want {
		if _, ok := emitted[name]; !ok {
			t.Errorf("%s metric %q in BENCHMARK.json is never emitted", kind, name)
		}
	}
}

func TestMetricNamesDeclared(t *testing.T) {
	bf := loadBenchmarkFile(t)
	checkNames(t, "end_to_end", endToEndUnits, bf.EndToEnd)
	checkNames(t, "per_layer", perLayerUnits, bf.PerLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}

	// The layer map names only declared metrics and workloads.
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Layers []struct {
			Metrics []string `json:"metrics"`
			Moves   []string `json:"moves"`
			Flat    []string `json:"flat"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(data, &lm); err != nil {
		t.Fatal(err)
	}
	for _, l := range lm.Layers {
		for _, m := range l.Metrics {
			if _, ok := perLayerUnits[m]; !ok {
				t.Errorf("layers.json: unknown per-layer metric %q", m)
			}
		}
		for _, e := range append(l.Moves, l.Flat...) {
			metric, wl, _ := strings.Cut(e, "@")
			_, e2e := endToEndUnits[metric]
			if _, layer := perLayerUnits[metric]; !e2e && !layer {
				t.Errorf("layers.json: unknown metric %q", e)
			}
			known := false
			for _, w := range workloads {
				known = known || w == wl
			}
			if !known {
				t.Errorf("layers.json: unknown workload in %q", e)
			}
		}
	}
}

// TestTracedRunEmitsEveryLayerMetric drives a short traced run end to
// end and checks its last line against BENCHMARK.json.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full traced run")
	}
	var out bytes.Buffer
	rc := run([]string{"--workload", "corpus", "--seed", "2", "--seconds", "0.4",
		"--trace", "1", "--out", t.TempDir()}, &out, os.Stderr)
	if rc != 0 {
		t.Fatalf("exit %d:\n%s", rc, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
		t.Errorf("report: correct %v attempted %d failed %d", rep.Correct, rep.Attempted, rep.Failed)
	}
	units := map[string]string{}
	for name, m := range rep.Metrics {
		units[name] = m.Unit
	}
	checkNames(t, "per_layer", units, loadBenchmarkFile(t).PerLayer)
	if rep.Metrics["harrier.trace_blocks"].Value != 0 {
		t.Errorf("corpus reached the trace tier: %v blocks per verdict", rep.Metrics["harrier.trace_blocks"].Value)
	}
}

// TestSelfTimes checks the span arithmetic on a hand-built tree.
func TestSelfTimes(t *testing.T) {
	span := func(id, parent uint64, name string, start, end int64) obs.Span {
		return obs.Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	spans := []obs.Span{
		span(1, 0, "bench.job", 0, 100),
		span(2, 1, "hth.run", 10, 60),
		span(3, 2, "run", 15, 55),
		span(4, 3, "execute", 20, 50),
		span(5, 4, "tier.interp", 20, 40),
		span(6, 4, "tier.trace", 30, 45), // overlaps its sibling
	}
	got := selfTimes(spans)
	want := map[string]int64{"bench.job": 50, "hth.run": 10, "run": 10, "execute": 5, "tier.interp": 20, "tier.trace": 15}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("self(%s) = %d, want %d", name, got[name], ns)
		}
	}
}

// TestUsPerSyscall checks that per-job load cost drops out of the
// syscall slope and that non-storm jobs do not enter it.
func TestUsPerSyscall(t *testing.T) {
	r := &nineResult{}
	for _, reps := range []int64{10, 50, 200} {
		// 3 µs per syscall on top of 40 µs (file) or 900 µs (net) of load.
		r.perJob = append(r.perJob,
			nineJob{storm: "file", syscalls: 3 * reps, bareNS: 40_000 + 3_000*3*reps},
			nineJob{storm: "net", syscalls: 4 * reps, bareNS: 900_000 + 3_000*4*reps},
			nineJob{syscalls: reps, bareNS: 5_000_000 / reps})
	}
	if got := r.usPerSyscall(); math.Abs(got-3) > 1e-9 {
		t.Errorf("usPerSyscall = %v, want 3", got)
	}
	if got := (&nineResult{perJob: r.perJob[2:3]}).usPerSyscall(); got != 0 {
		t.Errorf("usPerSyscall without storm jobs = %v, want 0", got)
	}
}
