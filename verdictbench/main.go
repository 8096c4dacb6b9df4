// Command verdictbench is the repository benchmark: the cost of a
// verdict, end to end and layer by layer, on three seeded workloads.
//
//	verdictbench --workload corpus --seed 1 --seconds 12 --trace 0
//
// Workloads: corpus (closed loop over the paper's scenarios; its
// traced run also drives them through hth.Service, saturated and on
// an open-loop rate ladder), guest-loops (closed loop over
// long-running benchmark guests), event-storm (closed loop over
// syscall-heavy guests). Every verdict is checked against an
// expectation; any mismatch makes the command exit 1. The closed
// loops and setup_s are timed on Linux CPU clocks (cpuclock.go).
//
// With --trace 0 the last stdout line carries the end-to-end metrics,
// with --trace 1 the per-layer ones (see BENCHMARK.json and
// layers.json). Human-readable detail precedes it. A traced run also
// writes its spans as Chrome trace_event JSON under --out.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	hth "repro"
	"repro/internal/corpus"
	"repro/internal/obs"
)

var workloads = []string{"corpus", "guest-loops", "event-storm"}

// setupProbes is how many cold processes setup_s takes the median of.
const setupProbes = 9

// gcPercent fixes the collector's pacing (GOGC) for every run. At Go's
// default of 100 the corpus mix, with a live heap near 2 MiB, collects
// every few milliseconds, and how much of each cycle the clients pay
// in assists depends on how fast the host runs the background mark
// workers. On a 2-vCPU VM whose host stole ~35% of the time, corpus
// p99 spread 0.17-0.30 (quartile distance over median, four seeds) at
// 100 and 0.06-0.10 at 400. Allocation still shows, in the rates and
// in the gc.* per-layer metrics.
const gcPercent = 400

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	debug.SetGCPercent(gcPercent)
	fs := flag.NewFlagSet("verdictbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 12, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "spans"), "directory for span dumps")
	probe := fs.Bool("setup-probe", false, "run the workload's first verdict cold and exit (setup_s child)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "verdictbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloads, ", "))
		return 2
	}
	if *probe {
		return firstVerdict(*workload, *seed, stdout, stderr)
	}

	b := &bench{workload: *workload, seed: *seed, jobs: genJobs(*workload, *seed)}
	d := time.Duration(*seconds * float64(time.Second))
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = b.endToEnd(d, stdout)
	} else {
		rep, err = b.perLayer(d, stdout, filepath.Join(*out,
			fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "verdictbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "verdictbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// firstVerdict is the setup_s child: build the workload's first job
// from nothing and judge its verdict, then report on stdout.
func firstVerdict(workload string, seed int64, stdout, stderr io.Writer) int {
	j := probeJob(workload, seed)
	b := &bench{workload: workload, seed: seed}
	v := b.runDirect(j, nil)
	if v.failed != "" || v.mismatch != "" {
		fmt.Fprintf(stderr, "verdictbench: setup probe: %s%s\n", v.failed, v.mismatch)
		return 1
	}
	fmt.Fprintln(stdout, "first-verdict ok")
	return 0
}

// probeJob is the job a cold process runs first: the seeded list's
// first scenario for corpus, and the smallest stratum of the guest
// workloads, so setup time does not swing with the seed's choice of a
// 256 KiB or 2000-event first job.
func probeJob(workload string, seed int64) job {
	switch workload {
	case "guest-loops":
		return job{Guest: memGuest(newRand(seed), "copy", 0, 256, "none")}
	case "event-storm":
		g := &guest{Kind: "file", Reps: stormClasses[0] / stormSyscalls["file"]}
		g.Src = stormSrc(g)
		return job{Guest: g}
	}
	return genJobs(workload, seed)[0]
}

// setupSeconds is the median, over setupProbes fresh processes, of
// the CPU time (user and system, every thread) each spends from its
// start to its first verdict and exit. CPU time, like the closed
// loops' clock, leaves out the time a shared host takes the vCPUs
// away.
func setupSeconds(workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", workload,
			"--seed", fmt.Sprint(seed), "--seconds", "1")
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, _ := bufio.NewReader(pipe).ReadString('\n')
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("setup probe: %v", err)
		}
		if strings.TrimSpace(line) != "first-verdict ok" {
			return 0, fmt.Errorf("setup probe: unexpected output %q", line)
		}
		ps := cmd.ProcessState
		ts = append(ts, (ps.UserTime() + ps.SystemTime()).Seconds())
	}
	return median(ts), nil
}

// prepare builds the service oracle's reference: every scenario's
// batch SweepSignature line.
func (b *bench) prepare() error {
	outs := corpus.RunAll(corpus.All(), clients)
	sig := corpus.SweepSignature(outs)
	b.batchSig = map[string]string{}
	for i, o := range outs {
		if !o.Reproduced() {
			return fmt.Errorf("batch reference: %s did not reproduce", o.Scenario.Name)
		}
		b.batchSig[o.Scenario.Name] = sig[i]
	}
	return nil
}

// endToEnd is the --trace 0 run.
func (b *bench) endToEnd(d time.Duration, w io.Writer) (*report, error) {
	setup, err := setupSeconds(b.workload, b.seed)
	if err != nil {
		return nil, err
	}
	b.closedLoop(d/20, nil) // warm-up, discarded
	thr := b.closedLoop(d*19/20, nil)

	rep := &report{Metrics: map[string]metric{}}
	put := func(name string, v float64) { rep.Metrics[name] = metric{v, endToEndUnits[name]} }
	put("setup_s", setup)
	put("verdicts_per_s", thr.verdictRate())
	put("verdict_p50_ms", thr.latQuantile(0.50))
	put("verdict_p99_ms", thr.latQuantile(0.99))
	put("guest_minstr_per_s", thr.rate(func(s sample) float64 { return float64(s.steps) })/1e6)
	put("events_per_s", thr.rate(func(s sample) float64 { return float64(s.events) }))
	// The sample log is the benchmark's heap, not the program's.
	n := len(thr.samples)
	thr.samples = nil
	peak, err := b.peakHeap()
	if err != nil {
		return nil, err
	}
	put("peak_heap_mb", float64(peak)/(1<<20))
	b.finishReport(rep, w, thr)
	fmt.Fprintf(w, "  latency samples: %d\n", n)
	return rep, nil
}

// finishReport fills the attempted/failed/correct fields from the phases
// and prints the failure and mismatch fractions.
func (b *bench) finishReport(rep *report, w io.Writer, phases ...*tally) {
	var mism int64
	for _, t := range phases {
		rep.Attempted += t.attempted
		rep.Failed += t.failed
		mism += t.mismatched
		if t.firstBad != "" {
			fmt.Fprintf(w, "%s: first problem: %s\n", b.workload, t.firstBad)
		}
	}
	rep.Correct = mism == 0 && rep.Attempted > 0
	var ff, mf float64
	if rep.Attempted > 0 {
		ff = float64(rep.Failed) / float64(rep.Attempted)
		mf = float64(mism) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "%s seed %d: attempted %d, failed_frac %g, mismatch_frac %g\n",
		b.workload, b.seed, rep.Attempted, ff, mf)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}

// endToEndUnits are the --trace 0 metrics and their units.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"verdicts_per_s":     "1/s",
	"verdict_p50_ms":     "ms",
	"verdict_p99_ms":     "ms",
	"guest_minstr_per_s": "Minstr/s",
	"events_per_s":       "1/s",
	"peak_heap_mb":       "MiB",
}

// nineResult is the §9 decomposition measured from outside: the same
// jobs run bare (Unmonitored), without data-flow tracking, and fully
// monitored. Each mode is timed around System.Run alone.
type nineResult struct {
	ns, steps [3]int64 // by mode: bare, nodataflow, full
	events    int64
	fullJobNS int64 // NewSystem + install + Run, full mode
	perJob    []nineJob
	failed    int64
	bad       string
}

type nineJob struct {
	storm            string // an event-storm job's kind, else ""
	events, syscalls int64
	bareNS, monNS    int64 // bare Run time; full minus bare Run time
}

const (
	modeBare = iota
	modeNoDataflow
	modeFull
)

// nine runs the decomposition over the job list for d, from one
// goroutine, timing on its thread's CPU clock. Syscall counts come
// from one extra metrics-attached run per distinct scenario or guest
// (runs are deterministic).
func (b *bench) nine(d time.Duration) *nineResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := &nineResult{}
	syscalls := map[any]int64{}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		j := b.nextJob()
		var key any = j.Scenario
		if j.Guest != nil {
			key = j.Guest
		}
		if _, ok := syscalls[key]; !ok {
			sys := hth.NewSystem()
			cfg, spec, err := setupJob(j, sys)
			if err == nil {
				m := hth.NewMetrics()
				cfg.Observers = append(cfg.Observers, m)
				if _, err = sys.Run(cfg, spec); err == nil {
					syscalls[key] = int64(m.KindCount(obs.KindSyscallEnter))
				}
			}
			if err != nil {
				r.failed++
				r.bad = err.Error()
				continue
			}
		}
		var jobNS, steps [3]int64
		var full verdict
		bad := ""
		for mode := modeBare; mode <= modeFull && bad == ""; mode++ {
			t0 := threadCPU()
			sys := hth.NewSystem()
			cfg, spec, err := setupJob(j, sys)
			if err != nil {
				bad = err.Error()
				break
			}
			switch mode {
			case modeBare:
				cfg.Unmonitored = true
			case modeNoDataflow:
				cfg.Monitor.Dataflow = false
			}
			t1 := threadCPU()
			res, err := sys.Run(cfg, spec)
			jobNS[mode] = (threadCPU() - t1).Nanoseconds()
			if err != nil {
				bad = err.Error()
				break
			}
			steps[mode] = int64(res.TotalSteps)
			if mode == modeFull {
				r.fullJobNS += (threadCPU() - t0).Nanoseconds()
				full = b.check(j, sys, res, err)
				bad = full.failed + full.mismatch
			}
		}
		if bad != "" {
			r.failed++
			r.bad = bad
			continue
		}
		for mode := range jobNS {
			r.ns[mode] += jobNS[mode]
			r.steps[mode] += steps[mode]
		}
		r.events += int64(full.events)
		nj := nineJob{events: int64(full.events), syscalls: syscalls[key],
			bareNS: jobNS[modeBare], monNS: jobNS[modeFull] - jobNS[modeBare]}
		if j.Guest != nil && j.Guest.Reps > 0 {
			nj.storm = j.Guest.Kind
		}
		r.perJob = append(r.perJob, nj)
	}
	return r
}

func (r *nineResult) nsPerInstr(mode int) float64 {
	if r.steps[mode] == 0 {
		return 0
	}
	return float64(r.ns[mode]) / float64(r.steps[mode])
}

// eventScaling is the monitor's µs/event (full minus bare Run time,
// per event) on the quarter of jobs with the most events over that on
// the quarter with the fewest.
func (r *nineResult) eventScaling() float64 {
	js := append([]nineJob(nil), r.perJob...)
	sort.Slice(js, func(a, b int) bool { return js[a].events < js[b].events })
	q := len(js) / 4
	if q == 0 {
		return 0
	}
	per := func(s []nineJob) float64 {
		var ns, ev int64
		for _, j := range s {
			ns += j.monNS
			ev += j.events
		}
		if ev == 0 {
			return 0
		}
		return float64(ns) / 1e3 / float64(ev)
	}
	lo, hi := per(js[:q]), per(js[len(js)-q:])
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// usPerSyscall is the marginal bare cost of a syscall, measured on
// the event-storm jobs: the least-squares slope of a job's bare Run
// time against its syscall count within each storm kind, whose jobs
// differ only in how often they repeat the same calls, so the per-job
// load cost drops out. Elsewhere syscall counts barely vary while the
// work around them does, and it is 0.
func (r *nineResult) usPerSyscall() float64 {
	type sums struct{ n, x, y float64 }
	by := map[string]*sums{}
	for _, j := range r.perJob {
		if j.storm == "" {
			continue
		}
		g := by[j.storm]
		if g == nil {
			g = &sums{}
			by[j.storm] = g
		}
		g.n++
		g.x += float64(j.syscalls)
		g.y += float64(j.bareNS)
	}
	var sxx, sxy float64
	for _, j := range r.perJob {
		if g := by[j.storm]; g != nil {
			dx := float64(j.syscalls) - g.x/g.n
			sxx += dx * dx
			sxy += dx * (float64(j.bareNS) - g.y/g.n)
		}
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx / 1e3
}

// perLayer is the --trace 1 run. The same jobs go through
// hth.Service (a traced saturated phase and the open-loop rate
// ladder), then through System.Run (an untraced and a traced
// closed-loop phase), then through the §9 decomposition.
func (b *bench) perLayer(d time.Duration, w io.Writer, dumpPath string) (*report, error) {
	ctx := context.Background()
	tr, svcTr := newTracer(), newTracer()
	if b.workload == "corpus" {
		if err := b.prepare(); err != nil {
			return nil, err
		}
	}
	svc := newService()
	byShard, err := b.shardJobs(ctx, svc)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	b.saturate(ctx, svc, byShard, d/40, nil) // warm-up, discarded
	phases := []*tally{b.saturate(ctx, svc, byShard, d/10, svcTr)}
	rungs := b.ladder(ctx, svc, d/24)
	if err := svc.Drain(ctx); err != nil {
		return nil, err
	}

	b.closedLoop(d/40, nil) // warm-up, discarded
	r0 := readRuntime()
	plain := b.closedLoop(d/5, nil)
	rt := runtimeDelta(r0, readRuntime())
	traced := b.closedLoop(d/5, tr)
	nine := b.nine(d * 3 / 20)
	for name, spans := range svcTr.kept {
		tr.kept["service "+name] = spans
	}
	if err := tr.dump(dumpPath); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	fmt.Fprintf(w, "spans of %d traced jobs written to %s\n", len(tr.kept), dumpPath)

	rep := &report{Metrics: map[string]metric{}}
	put := func(name string, v float64) { rep.Metrics[name] = metric{v, perLayerUnits[name]} }
	verdicts := float64(plain.completed())

	// Set-up and run phases.
	put("setup.new_system_us", tr.meanUS("hth.new_system"))
	put("image.install_us", tr.perJobUS("hth.install"))
	for _, p := range []string{"load", "instrument", "execute", "report"} {
		put("run."+p+"_us", tr.perJobUS(p))
	}

	// Taint engine.
	st := tr.stats
	// Tier time as a share of the execute phase, from the TierTimer's
	// per-tier attribution.
	for _, t := range []string{"interp", "summary", "trace", "clean"} {
		put("tier."+t+"_time_frac", fdiv(float64(tr.total["tier."+t]), float64(tr.total["execute"])))
	}
	blockShare := func(n uint64) float64 {
		if st.Blocks == 0 {
			return 0
		}
		return float64(n) / float64(st.Blocks)
	}
	put("tier.summary_share", blockShare(st.TierHits))
	put("tier.trace_share", blockShare(st.TraceHits))
	put("tier.clean_share", blockShare(st.CleanHits))
	put("tier.interp_share", blockShare(st.Blocks-st.TierHits-st.TraceHits-st.CleanHits))
	perJob := func(n uint64) float64 {
		if tr.jobs == 0 {
			return 0
		}
		return float64(n) / float64(tr.jobs)
	}
	put("harrier.trace_blocks", perJob(st.TraceHits))
	put("harrier.reinstrumented", perJob(st.Reinstrumented))
	put("harrier.trace_side_exit_ratio", ratio(st.TraceSideExits, st.TraceHits))
	put("harrier.clean_yield", ratio(st.CleanHits, st.CleanDemoted))
	put("taint.union_hit_rate", ratio(st.TaintUnionHits, st.TaintUnions))
	put("taint.tlb_hit_rate", mean(tr.tlb))

	// §9 decomposition and event costs.
	bare, nodf, full := nine.nsPerInstr(modeBare), nine.nsPerInstr(modeNoDataflow), nine.nsPerInstr(modeFull)
	put("isa.bare_ns_per_instr", bare)
	put("harrier.hooks_ns_per_instr", nodf-bare)
	put("taint.dataflow_ns_per_instr", full-nodf)
	if bare > 0 {
		put("harrier.overhead_x", full/bare)
	} else {
		put("harrier.overhead_x", 0)
	}
	monitorNS := float64(nine.ns[modeFull] - nine.ns[modeBare])
	put("vos.us_per_syscall", nine.usPerSyscall())
	put("monitor.us_per_event", fdiv(monitorNS/1e3, float64(nine.events)))
	put("monitor.time_frac", fdiv(monitorNS, float64(nine.fullJobNS)))
	put("secpert.rule_fires", perJob(tr.fires))
	put("secpert.warnings", perJob(tr.warnings))
	put("expert.event_us_scaling", nine.eventScaling())

	// Service.
	put("service.submit_us", svcTr.meanUS("hth.submit"))
	put("service.queue_ms_p50", quantile(svcTr.queueMS, 0.5))
	put("service.queue_ms_p99", quantile(svcTr.queueMS, 0.99))
	put("service.exec_ms_p50", quantile(svcTr.execMS, 0.5))
	put("service.overhead_us", mean(svcTr.overUS))
	var sub, rej int64
	var late []float64
	for _, o := range rungs {
		sub += o.attempted
		rej += o.rejected
		if o.rate == serveRate {
			late = o.lateMS
		}
		fmt.Fprintf(w, "ladder %5.0f jobs/s: p99 %.3f ms, rejected %d/%d, backlog growing %v, ok %v\n",
			o.rate, o.latQuantile(0.99), o.rejected, o.attempted, o.growing, o.ok())
	}
	put("service.rejected_frac", fdiv(float64(rej), float64(sub)))
	put("service.max_rate_ok_per_s", maxRateOK(rungs))
	// Tenant-hash balance of the ladder's seeded tenants.
	var perShard [serveShards]int64
	for _, o := range rungs {
		for i, n := range o.shards {
			perShard[i] += n
		}
	}
	var shardMax, shardAll int64
	for _, n := range perShard {
		shardAll += n
		shardMax = max(shardMax, n)
	}
	put("pool.shard_share_max", fdiv(float64(shardMax), float64(shardAll)))
	put("gen.late_ms_p99", quantile(late, 0.99))
	put("gen.late_ms_max", quantile(late, 1))

	// Go runtime, over the untraced phase.
	put("gc.allocs_per_verdict", fdiv(float64(rt.allocs), verdicts))
	put("gc.bytes_per_verdict", fdiv(float64(rt.bytes), verdicts))
	put("gc.cpu_frac", rt.gcCPUFrac)
	put("gc.pause_p99_ms", rt.pauseP99MS)

	// Tracing overhead and self time by layer.
	pv, tv := plain.verdictRate(), traced.verdictRate()
	put("obs.trace_overhead_frac", 1-fdiv(tv, pv))
	put("self.accounted_frac", 1-tr.selfFrac("unattributed"))
	for _, l := range selfLayers {
		t := tr
		if serviceLayers[l] {
			t = svcTr
		}
		put("self."+l+"_frac", t.selfFrac(l))
	}

	nt := &tally{attempted: nine.failed + int64(len(nine.perJob)), failed: nine.failed, firstBad: nine.bad}
	phases = append(phases, plain, traced, nt)
	for _, o := range rungs {
		// Ladder rejections define max_rate_ok_per_s; only mismatches
		// and non-admission failures count against the run.
		phases = append(phases, &tally{attempted: o.attempted - o.rejected,
			failed: o.failed - o.rejected, mismatched: o.mismatched})
	}
	b.finishReport(rep, w, phases...)
	return rep, nil
}

func ratio(a, b uint64) float64 { return fdiv(float64(a), float64(b)) }

func fdiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(s []float64) float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return fdiv(sum, float64(len(s)))
}

// perLayerUnits are the --trace 1 metrics and their units.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"setup.new_system_us":           "us",
		"image.install_us":              "us",
		"run.load_us":                   "us",
		"run.instrument_us":             "us",
		"run.execute_us":                "us",
		"run.report_us":                 "us",
		"tier.interp_time_frac":         "frac",
		"tier.summary_time_frac":        "frac",
		"tier.trace_time_frac":          "frac",
		"tier.clean_time_frac":          "frac",
		"tier.interp_share":             "frac",
		"tier.summary_share":            "frac",
		"tier.trace_share":              "frac",
		"tier.clean_share":              "frac",
		"harrier.trace_blocks":          "count",
		"harrier.reinstrumented":        "count",
		"harrier.trace_side_exit_ratio": "frac",
		"harrier.clean_yield":           "count",
		"taint.union_hit_rate":          "frac",
		"taint.tlb_hit_rate":            "frac",
		"isa.bare_ns_per_instr":         "ns",
		"harrier.hooks_ns_per_instr":    "ns",
		"taint.dataflow_ns_per_instr":   "ns",
		"harrier.overhead_x":            "x",
		"vos.us_per_syscall":            "us",
		"monitor.us_per_event":          "us",
		"monitor.time_frac":             "frac",
		"secpert.rule_fires":            "count",
		"secpert.warnings":              "count",
		"expert.event_us_scaling":       "x",
		"service.submit_us":             "us",
		"service.queue_ms_p50":          "ms",
		"service.queue_ms_p99":          "ms",
		"service.exec_ms_p50":           "ms",
		"service.overhead_us":           "us",
		"service.rejected_frac":         "frac",
		"service.max_rate_ok_per_s":     "1/s",
		"pool.shard_share_max":          "frac",
		"gen.late_ms_p99":               "ms",
		"gen.late_ms_max":               "ms",
		"gc.allocs_per_verdict":         "count",
		"gc.bytes_per_verdict":          "B",
		"gc.cpu_frac":                   "frac",
		"gc.pause_p99_ms":               "ms",
		"obs.trace_overhead_frac":       "frac",
		"self.accounted_frac":           "frac",
	}
	for _, l := range selfLayers {
		m["self."+l+"_frac"] = "frac"
	}
	return m
}()
