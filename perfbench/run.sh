#!/usr/bin/env bash
# Builds pcserved and the benchmark program from this checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload identify-25k --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# per-run files stay under .bench_build.
set -euo pipefail
out=.bench_build
mkdir -p "$out/tmp" "$out/runs"
# Each run removes its own working directory; one left by an interrupted
# run is removed once it is older than any run lasts, so a run still going
# in the same checkout keeps its files. The clean-up is housekeeping: a
# directory it cannot remove does not stop the run.
find "$out/runs" -mindepth 1 -maxdepth 1 -mmin +30 -exec rm -rf {} + || true
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/pcserved" ./cmd/pcserved
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -pcserved "$out/pcserved" -workdir "$out/runs" "$@"
