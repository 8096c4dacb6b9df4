package hth

import (
	"io"
	"time"

	"repro/internal/chaos"
	"repro/internal/harrier"
	"repro/internal/obs"
	"repro/internal/secpert"
)

// Observer consumes the structured event stream of a run: syscall
// enter/exit with virtual timestamps, scheduler decisions, fd
// lifecycle, taint-substrate samples, BB counter rollovers, rule
// fires, warnings, and injected chaos faults. Observers are attached
// with WithObserver (or Config.Observers) and invoked synchronously in
// event order; see the obs package for the event taxonomy.
type Observer = obs.Sink

// Event is one observation delivered to an Observer.
type Event = obs.Event

// Metrics is the counters/histograms registry sink: attach one with
// WithObserver(m) and read m.Snapshot() — or Result.Metrics, which
// snapshots the first attached registry automatically.
type Metrics = obs.Metrics

// MetricsSnapshot is a JSON-ready view of a Metrics registry.
type MetricsSnapshot = obs.Snapshot

// JSONL returns an Observer streaming the run trace to w as JSON
// Lines, one event per line. Replay and filter it with
// `hth-trace -replay`.
func JSONL(w io.Writer) Observer { return obs.JSONL(w) }

// NewMetrics returns an empty metrics registry Observer. One registry
// may be shared across runs; counts accumulate.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Sampling decimates the stream in front of sink: only every n-th
// event is forwarded.
func Sampling(n int, sink Observer) Observer { return obs.Sampling(n, sink) }

// CLIPSText returns an Observer rendering Secpert's CLIPS-style fire
// trace and warning printout to w.
func CLIPSText(w io.Writer) Observer { return obs.CLIPSText(w) }

// CLIPSTranscript is CLIPSText plus the Appendix-A.1 assert echo: every
// event fact asserted into the expert system, interleaved with the
// fire trace.
func CLIPSTranscript(w io.Writer) Observer { return obs.CLIPSTranscript(w) }

// Option mutates a Config under construction; see NewConfig.
type Option func(*Config)

// NewConfig is the successor of DefaultConfig-plus-field-poking: it
// starts from DefaultConfig and applies the options in order.
//
//	cfg := hth.NewConfig(
//	    hth.WithAdvisor(secpert.KillAtOrAbove(hth.High)),
//	    hth.WithObserver(hth.JSONL(f)),
//	)
func NewConfig(opts ...Option) Config {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithPolicy sets Secpert's rule configuration.
func WithPolicy(p secpert.Config) Option {
	return func(c *Config) { c.Policy = p }
}

// WithMonitor sets Harrier's instrumentation configuration.
func WithMonitor(m harrier.Config) Option {
	return func(c *Config) { c.Monitor = m }
}

// WithAdvisor sets the continue/kill advisor consulted per warning.
func WithAdvisor(a secpert.Advisor) Option {
	return func(c *Config) { c.Advisor = a }
}

// WithUnmonitored runs the guest without Harrier attached (native
// speed; the §9 baseline).
func WithUnmonitored() Option {
	return func(c *Config) { c.Unmonitored = true }
}

// WithMaxSteps caps total guest instructions.
func WithMaxSteps(n uint64) Option {
	return func(c *Config) { c.MaxSteps = n }
}

// WithChaos attaches a seeded fault-injection plan to the run.
func WithChaos(p *chaos.Plan) Option {
	return func(c *Config) { c.Chaos = p }
}

// WithDeadline bounds the run's wall-clock time; on expiry the
// scheduler stops and Result.RunErr is vos.ErrDeadline.
func WithDeadline(d time.Duration) Option {
	return func(c *Config) { c.Deadline = d }
}

// WithMaxOpenFDs caps open descriptors per guest process (negative
// disables the cap).
func WithMaxOpenFDs(n int) Option {
	return func(c *Config) { c.MaxOpenFDs = n }
}

// WithObserver attaches one or more observers to the run's event bus.
// Repeated uses accumulate.
func WithObserver(sinks ...Observer) Option {
	return func(c *Config) { c.Observers = append(c.Observers, sinks...) }
}

// WithProvenance enables causal provenance tracing: every taint source
// gets a stable ID at entry and each warning carries the rendered
// chains of the sources behind it (Warning.Chain, Result.Provenance).
// Recording observes taint state without mutating it, so detections
// are bit-identical with tracing on or off.
func WithProvenance() Option {
	return func(c *Config) { c.Provenance = true }
}

// WithSymbolizedChains enables provenance tracing (as WithProvenance)
// and renders block hops symbolically when the owning image carries
// symbols: "bb /bin/suspect:_start+0x8" instead of "bb 0x8048008".
// Addresses no symbol covers keep the raw form. Purely presentational:
// what is recorded and detected is bit-identical either way.
func WithSymbolizedChains() Option {
	return func(c *Config) {
		c.Provenance = true
		c.Symbolize = true
	}
}

// WithFlightRecorder arms the flight recorder: a fixed-size ring
// holding the run's last n events (n <= 0 selects the default size)
// even when no other observer is attached. Read it from Result.Flight.
func WithFlightRecorder(n int) Option {
	return func(c *Config) {
		if n <= 0 {
			n = obs.DefaultFlightSize
		}
		c.FlightSize = n
	}
}

// WithFlightDump arms the flight recorder and dumps it as gzipped
// JSONL to path when the run ends with a warning, a scheduler error, a
// guest fault, or injected chaos faults. Replay the dump with
// `hth-trace -replay path`.
func WithFlightDump(path string) Option {
	return func(c *Config) { c.FlightPath = path }
}

// WithJobTag tags the run with a job identity: a flight dump armed
// with WithFlightDump(path) lands at "<path>.<tag>.jsonl.gz" instead
// of path, so pooled runs sharing a dump location each keep their own
// post-mortem. The analysis service sets this automatically from the
// job id.
func WithJobTag(tag string) Option {
	return func(c *Config) { c.JobTag = tag }
}

// WithSpans arms job-lifecycle span tracing: the run records a
// wall-clock span tree (load / instrument / execute / report, with
// per-tier execution-time children) into Result.Spans and mirrors
// span events onto the bus when observers are attached. Spans are a
// pure observer: detections and taint state are bit-identical with
// tracing on or off.
func WithSpans() Option {
	return func(c *Config) { c.Spans = true }
}

// WithIntrospection serves live run introspection over HTTP on addr
// (e.g. "127.0.0.1:8077"): /metrics in Prometheus text format,
// /events as a filterable SSE stream, /flight as the recorder dump,
// and /debug/pprof. The server keeps running after the run so the
// final state can be scraped; shut it down with
// Result.Introspection.Shutdown.
func WithIntrospection(addr string) Option {
	return func(c *Config) { c.Introspect = addr }
}

// Flight is the flight-recorder ring sink (see WithFlightRecorder).
type Flight = obs.Flight

// Provenance is the per-source causal chain recorder (see
// WithProvenance).
type Provenance = obs.Provenance

// Introspection is the live HTTP introspection server. Runs created
// with WithIntrospection expose theirs as Result.Introspection; a
// standalone instance (NewIntrospection) can be attached with
// WithObserver and started manually to serve several runs.
type Introspection = obs.Introspection

// NewIntrospection returns a standalone introspection server with its
// own flight ring, for use as a long-lived observer across runs:
// attach with WithObserver and call Start/Shutdown yourself.
func NewIntrospection() *Introspection { return obs.NewIntrospection(nil) }
