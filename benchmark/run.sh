#!/usr/bin/env bash
# Entry point of the benchmark: builds it inside the checkout and runs it.
# Run from the repository root:
#
#   bash benchmark/run.sh -seed 1 -trace 1 -out results.json     (all workloads)
#   bash benchmark/run.sh --workload tcp_closed --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout:
# the Go build cache, temporary files and the binary.
set -euo pipefail

if [ ! -f benchmark/go.mod ] || [ ! -f go.mod ]; then
	echo "benchmark/run.sh: run me from the root of a checkout of the repository" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/mrbench" .
exec "$build/mrbench" "$@"
