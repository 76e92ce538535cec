#!/usr/bin/env bash
# Builds and runs the benchmark driver from the root of a checkout:
#
#   bash benchmark/run.sh --workload dense_campaign --seed 1 --seconds 14 --trace 0
#
# It is `go run ./benchmark "$@"` with the toolchain's cache and temporary
# files kept inside the benchmark's own directory (benchmark/.build/), so
# a run reads and writes nothing outside the checkout. The first run in a fresh checkout compiles
# the standard library into that cache and takes about a minute; later
# runs reuse the cached binary.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run me from the root of a checkout (no go.mod here)" >&2
	exit 2
fi

build="$PWD/benchmark/.build"
mkdir -p "$build/cache" "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp"
exec go run ./benchmark "$@"
