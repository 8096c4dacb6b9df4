#!/bin/sh
# check.sh — the full pre-merge gate: vet, build, unit tests, the
# race-detector pass over the parallel corpus runner, a seeded chaos
# sweep, and a fuzz smoke over the chaos plan parser. `make check`
# invokes this script.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# staticcheck is optional tooling: run it when installed, skip (loudly)
# when the host doesn't have it so the gate stays hermetic.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not on PATH; skipping" >&2
fi
go build ./...
go test ./...
# Race-detector pass over the whole module: the parallel corpus runner
# and the tier promotion/demotion paths run their full test load under
# the detector.
go test -race ./...
# Robustness gate: zero-rate identity plus fault containment over the
# full corpus on a fixed seed (see cmd/hth-bench).
go run ./cmd/hth-bench -chaos 0xC0FFEE,0.05 -parallel 4 >/dev/null
# Service soak gate: concurrent tenants under a seeded service-level
# fault storm — every job terminates in a verdict or typed error, no
# lost jobs, no leaked goroutines, and corpus-through-service sweep
# signatures bit-identical to batch (see Makefile `soak`).
make soak
# Fuzz smoke: the chaos plan parser must never panic on hostile specs.
go test -fuzz=FuzzChaos -fuzztime=10s ./internal/chaos
# Expert-engine oracle: random rules and assert/retract/run sequences
# must behave identically on the engine and its reference; a fuzz
# smoke beyond the seeded table test.
go test -fuzz=FuzzEngineDifferential -fuzztime=10s ./internal/expert
# Trace-tier gates: the full corpus must be bit-identical on the
# interpreter tier alone and with traces (crossed with provenance),
# and the trace oracle gets a fuzz smoke beyond its checked-in corpus.
go test -run TestTraceDifferentialSweep -count=1 ./internal/corpus
go test -fuzz=FuzzTraceApply -fuzztime=10s ./internal/harrier
# Clean-tier gates: the corpus must be bit-identical on the
# interpreter tier alone and with traces running bare under no-op
# verdicts, every verdict key field and stamp must force re-proof when
# it goes stale, the page-flip re-instrumentation seam holds under the
# chaos-delayed recv regression, and the mid-run taint-injection
# oracle gets a fuzz smoke (see Makefile `clean-tier`).
make clean-tier
# ELF frontend gate: fixture scenarios, symbolized-provenance goldens,
# decoder/pinned-layout units, the InstallSource equivalence sweep,
# and a fuzz smoke over the ELF parser (see Makefile `elf`).
make elf
# Observability overhead gate: the disabled event bus must stay one
# nil-check per publish site — no hot-path allocations, no gross
# throughput regression (see scripts/benchgate.sh).
sh scripts/benchgate.sh
# Span-tracing gate: span/summary/latency-histogram goldens, the span
# recorder under the race detector, the service span-lifecycle suite,
# and the spans-off/on differential sweep (see Makefile `spans`).
make spans
# Trace replay gate: a recorded trojandetect run must replay into the
# golden summary (determinism of the JSONL observer end to end).
make trace
