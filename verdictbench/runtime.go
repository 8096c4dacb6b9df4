package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"

	hth "repro"
)

// Go runtime counters, read through runtime/metrics.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type rtSnap struct {
	allocs, bytes   uint64
	gcCPU, totalCPU float64
	mem             runtime.MemStats // for the exact per-GC pauses
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.bytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[3].Value.Float64()
	}
	runtime.ReadMemStats(&r.mem)
	return r
}

// rtDelta is what the runtime did between two snapshots.
type rtDelta struct {
	allocs, bytes uint64
	gcCPUFrac     float64
	pauseP99MS    float64
}

func runtimeDelta(a, b rtSnap) rtDelta {
	d := rtDelta{allocs: b.allocs - a.allocs, bytes: b.bytes - a.bytes}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	// Stop-the-world pause of every GC in between; MemStats keeps the
	// last 256 exactly (GC k's pause sits at PauseNs[(k+255)%256]).
	var pauses []float64
	for k := b.mem.NumGC; k > a.mem.NumGC && b.mem.NumGC-k < 256; k-- {
		pauses = append(pauses, float64(b.mem.PauseNs[(k+255)%256])/1e6)
	}
	d.pauseP99MS = quantile(pauses, 0.99)
	return d
}

// peakHeap is the live heap of the process running one verdict at a
// time: the heap it holds with nothing in flight after the workload's
// run (caches the program keeps across jobs included), plus the most
// that any one job of the cycle holds at its verdict, guest world and
// result still referenced. Each figure is read after a forced
// collection with nothing else allocating, so runs repeat it closely.
// The live heap sampled under load does not repeat: it also counts
// what the clients allocated while each collection marked, which
// moves with how fast the host ran them (corpus read 4.7-8.0 MiB over
// five seeds that way).
func (b *bench) peakHeap() (uint64, error) {
	runtime.GC()
	base := liveHeap()
	var most uint64
	for _, j := range b.jobs {
		sys := hth.NewSystem()
		cfg, spec, err := setupJob(j, sys)
		if err != nil {
			return 0, err
		}
		res, err := sys.Run(cfg, spec)
		if v := b.check(j, sys, res, err); v.failed != "" || v.mismatch != "" {
			return 0, fmt.Errorf("heap pass: %s%s", v.failed, v.mismatch)
		}
		runtime.GC()
		if live := liveHeap(); live > base {
			most = max(most, live-base)
		}
		runtime.KeepAlive(sys)
		runtime.KeepAlive(res)
	}
	return base + most, nil
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
