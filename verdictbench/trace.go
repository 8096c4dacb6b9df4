package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	hth "repro"
	"repro/internal/harrier"
	"repro/internal/obs"
)

// The traced run records a span around every public call the
// benchmark makes into the program (NewSystem, install, Run, Submit,
// Wait, and the oracle's Check), grafts the program's own run and job
// spans under them, and keeps everything in memory until the run
// ends. Per-layer self time is a span's duration minus the part of it
// its children cover.

// clock is the shared time base: obs recorders derive their
// timestamps the same way, so grafted program spans line up with the
// benchmark's own.
var clock = obs.NewSpanRecorder("verdictbench")

// benchIDs numbers the benchmark's spans in a range the program's
// process-unique span IDs never reach.
var benchIDs atomic.Uint64

func init() { benchIDs.Store(1 << 62) }

// keptTraces bounds how many job traces the span dump holds.
const keptTraces = 256

// jobTrace is one job's span tree. A nil *jobTrace records nothing,
// so the untraced path pays one nil check per call site.
type jobTrace struct {
	id      string
	spans   []obs.Span
	res     *hth.Result
	service bool // a service job: queue and exec spans are its own
}

func (jt *jobTrace) root() uint64 {
	if jt == nil {
		return 0
	}
	return jt.spans[0].ID
}

func (jt *jobTrace) start(parent uint64, name string) uint64 {
	if jt == nil {
		return 0
	}
	id := benchIDs.Add(1)
	jt.spans = append(jt.spans, obs.Span{ID: id, Parent: parent, Name: name, Start: clock.Now()})
	return id
}

func (jt *jobTrace) end(id uint64) {
	if jt == nil {
		return
	}
	now := clock.Now()
	for i := len(jt.spans) - 1; i >= 0; i-- {
		if jt.spans[i].ID == id {
			jt.spans[i].End = now
			return
		}
	}
}

// graft adopts the program's spans, hanging their roots under parent.
func (jt *jobTrace) graft(spans []obs.Span, parent uint64) {
	if jt == nil {
		return
	}
	for _, s := range spans {
		if s.Parent == 0 {
			s.Parent = parent
		}
		jt.spans = append(jt.spans, s)
	}
}

func (jt *jobTrace) note(res *hth.Result) {
	if jt != nil {
		jt.res = res
	}
}

func (jt *jobTrace) serviceJob() {
	if jt != nil {
		jt.service = true
	}
}

// tracer aggregates finished job traces.
type tracer struct {
	mu       sync.Mutex
	kept     map[string][]obs.Span
	self     map[string]int64 // layer label -> self ns
	total    map[string]int64 // span name -> summed duration ns
	count    map[string]int64 // span name -> span count
	jobs     int64
	wallNS   int64
	queueMS  []float64
	execMS   []float64
	overUS   []float64 // job wall minus queue minus exec, per service job
	stats    harrier.Stats
	tlb      []float64
	fires    uint64
	warnings uint64
}

func newTracer() *tracer {
	return &tracer{
		kept: map[string][]obs.Span{}, self: map[string]int64{},
		total: map[string]int64{}, count: map[string]int64{},
	}
}

// begin opens a job trace (nil on a nil tracer).
func (tr *tracer) begin(id string) *jobTrace {
	if tr == nil {
		return nil
	}
	jt := &jobTrace{id: id}
	jt.spans = append(jt.spans, obs.Span{ID: benchIDs.Add(1), Name: "bench.job", Start: clock.Now()})
	return jt
}

// finish closes the job's root span and folds the trace in.
func (tr *tracer) finish(jt *jobTrace) {
	if tr == nil {
		return
	}
	jt.spans[0].End = clock.Now()
	self := selfTimes(jt.spans)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.jobs++
	tr.wallNS += jt.spans[0].Duration()
	for name, ns := range self {
		tr.self[layerOf(name)] += ns
	}
	var queue, exec int64
	for i := range jt.spans {
		s := &jt.spans[i]
		d := s.Duration()
		tr.total[s.Name] += d
		tr.count[s.Name]++
		switch s.Name {
		case "queue":
			queue += d
		case "exec":
			exec += d
		}
	}
	if jt.service {
		tr.queueMS = append(tr.queueMS, float64(queue)/1e6)
		tr.execMS = append(tr.execMS, float64(exec)/1e6)
		tr.overUS = append(tr.overUS, float64(jt.spans[0].Duration()-queue-exec)/1e3)
	}
	if res := jt.res; res != nil {
		addStats(&tr.stats, res.Stats)
		tr.warnings += uint64(len(res.Warnings))
		if m := res.Metrics; m != nil {
			if r, ok := m.Gauges["taint.tlb_hit_rate"]; ok {
				tr.tlb = append(tr.tlb, r)
			}
			for name, n := range m.Counters {
				if strings.HasPrefix(name, "rule.") {
					tr.fires += n
				}
			}
		}
	}
	if len(tr.kept) < keptTraces {
		tr.kept[fmt.Sprintf("%06d %s", tr.jobs, jt.id)] = jt.spans
	}
}

func addStats(a *harrier.Stats, b harrier.Stats) {
	a.Instructions += b.Instructions
	a.Blocks += b.Blocks
	a.TierHits += b.TierHits
	a.TraceHits += b.TraceHits
	a.TraceSideExits += b.TraceSideExits
	a.CleanDemoted += b.CleanDemoted
	a.CleanHits += b.CleanHits
	a.Reinstrumented += b.Reinstrumented
	a.TaintUnions += b.TaintUnions
	a.TaintUnionHits += b.TaintUnionHits
}

// selfTimes returns each span name's summed self time: duration minus
// the union of its children's intervals, clipped to the span.
func selfTimes(spans []obs.Span) map[string]int64 {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		out[s.Name] += s.Duration() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var n, cur int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			n += e - s
			cur = e
		}
	}
	return n
}

// selfLayers are the layers self time is reported for, in order.
var selfLayers = []string{
	"unattributed", "new_system", "install", "run_call", "run_core",
	"instrument", "load", "execute", "tier", "report", "check",
	"submit", "wait", "service_job", "admit", "queue", "exec",
}

// serviceLayers are the layers only service jobs have; their self
// time is reported as a share of service job wall time.
var serviceLayers = map[string]bool{
	"submit": true, "wait": true, "service_job": true, "admit": true, "queue": true, "exec": true,
}

// layerOf maps a span name to its self-time layer.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "tier."):
		return "tier"
	case name == "run":
		return "run_core"
	case name == "job":
		return "service_job"
	case name == "decode":
		return "admit"
	}
	if l, ok := map[string]string{
		"bench.job": "unattributed", "hth.new_system": "new_system",
		"hth.install": "install", "hth.run": "run_call", "oracle.check": "check",
		"hth.submit": "submit", "hth.wait": "wait",
	}[name]; ok {
		return l
	}
	return name
}

// perJobUS is the mean duration of the named span per traced job.
func (tr *tracer) perJobUS(name string) float64 {
	if tr.jobs == 0 {
		return 0
	}
	return float64(tr.total[name]) / 1e3 / float64(tr.jobs)
}

// meanUS is the mean duration of one named span.
func (tr *tracer) meanUS(name string) float64 {
	if tr.count[name] == 0 {
		return 0
	}
	return float64(tr.total[name]) / 1e3 / float64(tr.count[name])
}

func (tr *tracer) selfFrac(layer string) float64 {
	if tr.wallNS == 0 {
		return 0
	}
	return float64(tr.self[layer]) / float64(tr.wallNS)
}

// dump writes the kept traces as Chrome trace_event JSON.
func (tr *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteChromeSpans(w, tr.kept, clock.Now()); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
