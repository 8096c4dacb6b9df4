package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hth "repro"
	"repro/internal/corpus"
	"repro/internal/vos"
)

// clients is the closed-loop concurrency: one per vCPU of the 2-vCPU
// hosts the workloads were sized on.
const clients = 2

// Service shape for the service phases: 2 shards x 1 worker. The
// saturated phase's per-shard window (serveWindow/serveShards) keeps
// each worker busy and stays under the queue depth, so saturation
// never trips admission control.
const (
	serveShards     = 2
	serveQueueDepth = 32
	serveWindow     = 24
	serveRate       = 1000.0 // the ladder rung whose generator lateness is reported
	// serveKeep bounds the completed jobs the service retains for
	// Lookup. The default (4096) keeps each job's whole guest world
	// alive, over 1 GiB of heap on this mix; the benchmark holds its
	// own handles and never looks jobs up.
	serveKeep       = 64
	serveP99LimitMS = 100.0
)

// serveLadder is the open-loop rate ladder behind
// service.max_rate_ok_per_s.
var serveLadder = []float64{500, 1000, 1500, 2000, 3000, 4000}

// bench holds one workload run's inputs and oracle state.
type bench struct {
	workload string
	seed     int64
	jobs     []job
	next     atomic.Int64

	// batchSig maps scenario name to its batch SweepSignature line:
	// the service oracle's reference.
	batchSig map[string]string
}

func (b *bench) nextJob() job {
	return b.jobs[int(b.next.Add(1)-1)%len(b.jobs)]
}

// verdict is the outcome of one job, as the oracle judged it.
type verdict struct {
	res      *hth.Result
	steps    uint64
	events   uint64 // monitored events delivered to Secpert
	failed   string // non-empty: the operation failed, was refused or missed its deadline
	mismatch string // non-empty: the verdict differs from the expectation
}

// tally accumulates the verdicts of one measured phase.
type tally struct {
	mu         sync.Mutex
	start      time.Time
	clock      func() time.Duration // the phase's time axis, from its start
	cpus       float64              // how many CPUs' time one second of clock holds
	samples    []sample             // completed verdicts and refusals, in completion order
	attempted  int64
	failed     int64
	mismatched int64
	elapsed    time.Duration // on clock
	firstBad   string
}

// sample is one completed verdict (or one refusal, which carries a
// latency that misses any limit and no work).
type sample struct {
	at     time.Duration // completion, on the tally's clock
	latMS  float64
	steps  uint64
	events uint64
	missed bool // a refusal, not a verdict
}

// newTally times a phase on the wall clock: the service phases, whose
// latency includes queueing.
func newTally() *tally {
	t := &tally{start: time.Now(), cpus: 1}
	t.clock = func() time.Duration { return time.Since(t.start) }
	return t
}

// newCPUTally times a closed-loop phase on the process CPU clock. The
// loop keeps all `clients` CPUs busy, so one second of process CPU
// time is 1/clients of a second of a host that gives it every cycle.
func newCPUTally() *tally {
	t := &tally{start: time.Now(), cpus: clients}
	c0 := processCPU()
	t.clock = func() time.Duration { return processCPU() - c0 }
	return t
}

func (t *tally) add(v verdict, lat time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case v.failed != "":
		t.failed++
		if t.firstBad == "" {
			t.firstBad = "failed: " + v.failed
		}
		return
	case v.mismatch != "":
		t.mismatched++
		t.firstBad = "mismatch: " + v.mismatch
	}
	t.samples = append(t.samples, sample{at: t.clock(),
		latMS: float64(lat.Nanoseconds()) / 1e6, steps: v.steps, events: v.events})
}

// addMissed counts a refused operation: failed, and a latency sample
// that misses any limit (recorded as the phase length).
func (t *tally) addMissed(why string, phase time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if t.firstBad == "" {
		t.firstBad = "failed: " + why
	}
	t.samples = append(t.samples, sample{at: t.clock(),
		latMS: float64(phase.Nanoseconds()) / 1e6, missed: true})
}

func (t *tally) completed() int64 { return t.attempted - t.failed }

func (t *tally) done() { t.elapsed = t.clock() }

// Robust aggregation. Some disturbance survives the CPU clocks (a
// neighbour thrashing the shared caches slows every cycle); one that
// covers less than half a run must not move its numbers. So a
// rate is the median over equal time windows of the phase, and a
// latency quantile is the median of that quantile over equal-count
// windows of at least latWindow samples each (so a p99 window keeps
// at least ten samples beyond it).
const (
	rateWindows = 9
	latWindow   = 1000
)

// rate is the median over time windows of the per-second sum of f.
// On the CPU clock a second is `clients` CPU-seconds.
func (t *tally) rate(f func(sample) float64) float64 {
	k := min(rateWindows, max(1, int(t.elapsed/(500*time.Millisecond))))
	w := t.elapsed / time.Duration(k)
	if w <= 0 {
		return 0
	}
	sums := make([]float64, k)
	for _, s := range t.samples {
		if i := int(s.at / w); i < k {
			sums[i] += f(s)
		}
	}
	for i := range sums {
		sums[i] /= w.Seconds() / t.cpus
	}
	return median(sums)
}

func (t *tally) verdictRate() float64 {
	return t.rate(func(s sample) float64 {
		if s.missed {
			return 0
		}
		return 1
	})
}

// latQuantile is the median over sample windows of the q-quantile.
func (t *tally) latQuantile(q float64) float64 {
	n := len(t.samples)
	k := min(rateWindows, max(1, n/latWindow))
	if k%2 == 0 {
		k--
	}
	var qs []float64
	for i := 0; i < k; i++ {
		var lat []float64
		for _, s := range t.samples[i*n/k : (i+1)*n/k] {
			lat = append(lat, s.latMS)
		}
		qs = append(qs, quantile(lat, q))
	}
	return median(qs)
}

// setupJob builds a job's guest world and run configuration. It is
// the work the service does inside a job's exec span.
func setupJob(j job, sys *hth.System) (hth.Config, hth.RunSpec, error) {
	cfg := hth.DefaultConfig()
	if sc := j.Scenario; sc != nil {
		if sc.Setup != nil {
			sc.Setup(sys)
		}
		if sc.Tweak != nil {
			sc.Tweak(&cfg)
		}
		return cfg, sc.Spec, nil
	}
	if err := j.Guest.install(sys); err != nil {
		return cfg, hth.RunSpec{}, err
	}
	return cfg, hth.RunSpec{Path: "/bin/guest", Stdin: j.Guest.Stdin}, nil
}

// runDirect runs one job through System.Run. A non-nil jt records
// the benchmark's spans around each public call and grafts the run's
// own phase spans under the Run span.
func (b *bench) runDirect(j job, jt *jobTrace) verdict {
	sp := jt.start(jt.root(), "hth.new_system")
	sys := hth.NewSystem()
	jt.end(sp)
	sp = jt.start(jt.root(), "hth.install")
	cfg, spec, err := setupJob(j, sys)
	jt.end(sp)
	if err != nil {
		return verdict{failed: err.Error()}
	}
	if jt != nil {
		cfg.Spans = true
		cfg.Observers = append(cfg.Observers, hth.NewMetrics())
	}
	sp = jt.start(jt.root(), "hth.run")
	res, err := sys.Run(cfg, spec)
	jt.end(sp)
	if res != nil && res.Spans != nil {
		jt.graft(res.Spans.Spans(), sp)
	}
	sp = jt.start(jt.root(), "oracle.check")
	v := b.check(j, sys, res, err)
	jt.end(sp)
	jt.note(v.res)
	return v
}

// check is the per-workload correctness oracle.
func (b *bench) check(j job, sys *hth.System, res *hth.Result, err error) verdict {
	if err != nil {
		return verdict{failed: fmt.Sprintf("%s: %v", j.name(), err)}
	}
	v := verdict{res: res, steps: res.TotalSteps,
		events: res.Stats.AccessEvents + res.Stats.IOEvents}
	if errors.Is(res.RunErr, vos.ErrDeadline) {
		v.failed = j.name() + ": missed its deadline"
		return v
	}
	if sc := j.Scenario; sc != nil {
		problems := sc.Check(res)
		if len(problems) > 0 {
			v.mismatch = sc.Name + ": " + problems[0]
		} else if b.batchSig != nil {
			sig := corpus.SweepSignature([]corpus.RunOutcome{{Scenario: sc, Result: res, Problems: problems}})[0]
			if sig != b.batchSig[sc.Name] {
				v.mismatch = fmt.Sprintf("signature drift: service %q, batch %q", sig, b.batchSig[sc.Name])
			}
		}
		return v
	}
	g := j.Guest
	if res.RunErr != nil || (res.Process != nil && res.Process.Fault != nil) {
		v.mismatch = fmt.Sprintf("%s: guest did not finish cleanly (run %v)", j, res.RunErr)
		return v
	}
	if g.Reps > 0 {
		if got, want := warningCounts(res), g.expectedWarnings(); got != want {
			v.mismatch = fmt.Sprintf("%s: warnings %s, want %s", j, got, want)
		} else if want := uint64(g.Reps * stormEvents[g.Kind]); v.events != want {
			v.mismatch = fmt.Sprintf("%s: %d monitored events, want %d", j, v.events, want)
		}
		return v
	}
	out := res.Console
	if g.Kind == "checksum" {
		out = nil
		if sys != nil {
			if f, ok := sys.OS.FS.Lookup(checksumOut); ok {
				out = f.Data
			}
		}
	}
	if len(out) != 4 {
		v.mismatch = fmt.Sprintf("%s: emitted %d bytes, want 4", j, len(out))
	} else if got, want := le32(out), g.expected(); got != want {
		v.mismatch = fmt.Sprintf("%s: result %#x, want %#x", j, got, want)
	}
	return v
}

// warningCounts renders a result's warnings as sorted
// "severity/rule=count" pairs.
func warningCounts(res *hth.Result) string {
	m := map[string]int{}
	for _, w := range res.Warnings {
		m[fmt.Sprintf("%s/%s", w.Severity, w.Rule)]++
	}
	return renderCounts(m)
}

func renderCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// expectedWarnings is the hand-written event-storm expectation, per
// event kind:
//   - file: every write of hardcoded data to the hardcoded file is a
//     HIGH check_write;
//   - read: reading a file into a buffer that goes nowhere is silent;
//   - net: every send of hardcoded data to a hardcoded address is a
//     LOW check_write;
//   - proc: every execve of a hardcoded path is a LOW check_execve,
//     and the fork count (>= 8) and fork rate (>= 8 in the window)
//     each warn once.
func (g *guest) expectedWarnings() string {
	m := map[string]int{}
	switch g.Kind {
	case "file":
		m["HIGH/check_write"] = g.Reps
	case "net":
		m["LOW/check_write"] = g.Reps
	case "proc":
		m["LOW/check_execve"] = g.Reps
		if g.Reps >= 8 {
			m["LOW/check_clone_count"] = 1
			m["MEDIUM/check_clone_rate"] = 1
		}
	}
	return renderCounts(m)
}

// closedLoop runs the workload's jobs from `clients` goroutines, each
// starting its next job when the previous one returns, for d of wall
// time. Each client owns an OS thread, and a job's latency is the CPU
// time that thread spent from the call to the verdict (see
// cpuclock.go); rates are on the process CPU clock.
func (b *bench) closedLoop(d time.Duration, tr *tracer) *tally {
	t := newCPUTally()
	deadline := t.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for time.Now().Before(deadline) {
				j := b.nextJob()
				jt := tr.begin(j.String())
				t0 := threadCPU()
				v := b.runDirect(j, jt)
				lat := threadCPU() - t0
				tr.finish(jt)
				t.add(v, lat)
			}
		}()
	}
	wg.Wait()
	t.done()
	return t
}

// --- service phases ---

func newService() *hth.Service {
	return hth.NewService(hth.ServiceConfig{
		Shards: serveShards, WorkersPerShard: 1, QueueDepth: serveQueueDepth,
		KeepResults: serveKeep,
	})
}

// ticket is one admitted service job. The job's Setup records the
// guest world the service built for it, so the oracle can read the
// guest's files once the verdict is in.
type ticket struct {
	h   *hth.JobHandle
	sys *hth.System
}

// jobSpec turns a job into a service submission. Traced jobs also
// carry a metrics registry, so Result.Metrics is populated.
func jobSpec(j job, traced bool, tk *ticket) hth.JobSpec {
	spec := hth.JobSpec{Tenant: j.Tenant}
	var setup func(*hth.System)
	var cfgTweak func(*hth.Config)
	if sc := j.Scenario; sc != nil {
		setup, cfgTweak = sc.Setup, sc.Tweak
		spec.Path, spec.Argv, spec.Env, spec.Stdin = sc.Spec.Path, sc.Spec.Argv, sc.Spec.Env, sc.Spec.Stdin
	} else {
		// Generated guests always assemble (TestOracleAgreesWithGuests);
		// a failure would surface as a guest fault on the missing path.
		g := j.Guest
		setup = func(sys *hth.System) { _ = g.install(sys) }
		spec.Path, spec.Stdin = "/bin/guest", g.Stdin
	}
	spec.Setup = func(sys *hth.System) {
		tk.sys = sys
		if setup != nil {
			setup(sys)
		}
	}
	spec.Tweak = cfgTweak
	if traced {
		spec.Tweak = func(cfg *hth.Config) {
			if cfgTweak != nil {
				cfgTweak(cfg)
			}
			cfg.Observers = append(cfg.Observers, hth.NewMetrics())
		}
	}
	return spec
}

// await waits for a submitted job and judges its verdict.
func (b *bench) await(ctx context.Context, j job, tk *ticket, jt *jobTrace) verdict {
	sp := jt.start(jt.root(), "hth.wait")
	res, err := tk.h.Wait(ctx)
	jt.end(sp)
	if err != nil {
		return verdict{failed: fmt.Sprintf("%s: %v", j.name(), err)}
	}
	// The job trace hangs under the Wait span, so Wait's self time is
	// only the wake-up after the verdict.
	jt.graft(tk.h.Spans().Spans(), sp)
	if res.Status != "done" {
		return verdict{failed: fmt.Sprintf("%s: status %s: %v", j.name(), res.Status, res.Error)}
	}
	sp = jt.start(jt.root(), "oracle.check")
	v := b.check(j, tk.sys, res.Raw, nil)
	jt.end(sp)
	jt.note(v.res)
	jt.serviceJob()
	return v
}

// submit sends one job, timing the Submit call when traced.
func (b *bench) submit(svc *hth.Service, j job, jt *jobTrace) (*ticket, error) {
	tk := &ticket{}
	sp := jt.start(jt.root(), "hth.submit")
	h, err := svc.Submit(jobSpec(j, jt != nil, tk))
	jt.end(sp)
	tk.h = h
	return tk, err
}

// shardJobs splits the job list by the shard each job's tenant
// hashes to, learning the mapping from one submission per tenant
// (JobHandle.Shard). Those submissions are verdicts like any other
// and are checked.
func (b *bench) shardJobs(ctx context.Context, svc *hth.Service) ([][]job, error) {
	shardOf := map[string]int{}
	for _, j := range b.jobs {
		if _, ok := shardOf[j.Tenant]; ok {
			continue
		}
		tk, err := b.submit(svc, j, nil)
		if err != nil {
			return nil, err
		}
		if v := b.await(ctx, j, tk, nil); v.failed != "" || v.mismatch != "" {
			return nil, fmt.Errorf("%s%s", v.failed, v.mismatch)
		}
		shardOf[j.Tenant] = tk.h.Shard()
	}
	out := make([][]job, serveShards)
	for _, j := range b.jobs {
		out[shardOf[j.Tenant]] = append(out[shardOf[j.Tenant]], j)
	}
	return out, nil
}

// saturate keeps every shard's worker busy for d: one submitter per
// shard holds serveWindow/serveShards of that shard's jobs in flight.
// (One shared window would fill up with the jobs of the shard more
// tenants hash to, and the other shard would idle.) The windows stay
// under the queue depth, so admission never refuses.
func (b *bench) saturate(ctx context.Context, svc *hth.Service, byShard [][]job, d time.Duration, tr *tracer) *tally {
	t := newTally()
	deadline := t.start.Add(d)
	var subs, waits sync.WaitGroup
	for _, jobs := range byShard {
		if len(jobs) == 0 {
			continue
		}
		subs.Add(1)
		go func(jobs []job) {
			defer subs.Done()
			sem := make(chan struct{}, serveWindow/serveShards)
			for i := 0; time.Now().Before(deadline); i++ {
				sem <- struct{}{}
				j := jobs[i%len(jobs)]
				jt := tr.begin(j.String())
				t0 := time.Now()
				tk, err := b.submit(svc, j, jt)
				if err != nil {
					t.add(verdict{failed: err.Error()}, 0)
					<-sem
					continue
				}
				waits.Add(1)
				go func() {
					defer waits.Done()
					v := b.await(ctx, j, tk, jt)
					lat := time.Since(t0)
					tr.finish(jt)
					t.add(v, lat)
					<-sem
				}()
			}
		}(jobs)
	}
	subs.Wait()
	waits.Wait()
	t.done()
	return t
}

// openResult is one open-loop phase: the verdict tally plus the
// generator's honesty record.
type openResult struct {
	*tally
	rate     float64
	rejected int64
	lateMS   []float64          // per job: actual send time minus scheduled
	growing  bool               // the backlog grew through the phase
	shards   [serveShards]int64 // admitted jobs per shard
}

// ok reports whether the phase met the ladder's conditions.
func (o *openResult) ok() bool {
	return o.rejected == 0 && !o.growing && o.latQuantile(0.99) <= serveP99LimitMS
}

// openLoop submits Poisson arrivals at rate for d from one generator
// goroutine. Each job is timed from its scheduled send time, so a
// stalled generator or service charges the wait to every job behind
// it. A refused job counts as failed and as a missed latency sample.
func (b *bench) openLoop(ctx context.Context, svc *hth.Service, rate float64, d time.Duration) *openResult {
	o := &openResult{tally: newTally(), rate: rate}
	rng := rand.New(rand.NewSource(b.seed ^ int64(rate)))
	var inflight atomic.Int64
	var wg sync.WaitGroup

	// Backlog sampler: in-flight jobs every 10ms.
	var backlog []int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				backlog = append(backlog, inflight.Load())
			}
		}
	}()

	start := o.start
	for at := 0.0; ; {
		at += rng.ExpFloat64() / rate
		if at >= d.Seconds() {
			break
		}
		due := start.Add(time.Duration(at * 1e9))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		o.lateMS = append(o.lateMS, float64(time.Since(due).Nanoseconds())/1e6)
		j := b.nextJob()
		tk, err := b.submit(svc, j, nil)
		if err != nil {
			o.rejected++
			o.addMissed(err.Error(), d)
			continue
		}
		o.shards[tk.h.Shard()]++
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := b.await(ctx, j, tk, nil)
			inflight.Add(-1)
			o.add(v, time.Since(due))
		}()
	}
	close(stop)
	<-sampled
	wg.Wait()
	o.done()
	o.growing = growing(backlog)
	return o
}

// growing reports a backlog that rose through a phase: the last
// third's mean in-flight count is more than twice the first third's
// and at least one shard queue deep.
func growing(samples []int64) bool {
	n := len(samples) / 3
	if n == 0 {
		return false
	}
	mean := func(s []int64) float64 {
		var sum int64
		for _, v := range s {
			sum += v
		}
		return float64(sum) / float64(len(s))
	}
	first, last := mean(samples[:n]), mean(samples[len(samples)-n:])
	return last > 2*first && last-first >= serveQueueDepth
}

// ladder runs the open-loop rate ladder and returns every rung run.
// It stops after two consecutive failed rungs.
func (b *bench) ladder(ctx context.Context, svc *hth.Service, rung time.Duration) []*openResult {
	var out []*openResult
	fails := 0
	for _, r := range serveLadder {
		o := b.openLoop(ctx, svc, r, rung)
		out = append(out, o)
		if o.ok() {
			fails = 0
		} else if fails++; fails == 2 {
			break
		}
	}
	return out
}

// maxRateOK is the highest ladder rate that met every condition.
func maxRateOK(rungs []*openResult) float64 {
	best := 0.0
	for _, o := range rungs {
		if o.ok() && o.rate > best {
			best = o.rate
		}
	}
	return best
}

// quantile is the nearest-rank q-quantile (0 for no samples). It
// sorts s in place.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(s []float64) float64 { return quantile(append([]float64(nil), s...), 0.5) }
