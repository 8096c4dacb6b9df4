#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root:
#
#   bash verdictbench/run.sh --workload corpus --seed 1 --seconds 12 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# working directory. Outside a repository checkout (no module at the
# root) the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/verdictbench" && go build -buildvcs=false -o "$out/bin/verdictbench" .)
exec "$out/bin/verdictbench" --out "$out/spans" "$@"
