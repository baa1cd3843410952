#!/usr/bin/env bash
# Builds the benchmark and gaia-exp from the checkout this script sits in,
# then runs the benchmark from the checkout's root with the arguments given.
# Build cache, binaries and results stay under .bench_build/ in the checkout.
#
#   bash benchmark/run.sh --workload year-direct --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare setA setB
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

# Run in a subshell so a failed build exits before anything is measured.
(
	cd "$root/benchmark"
	go build -buildvcs=false -o "$build/gaia-benchmark" .
	go build -buildvcs=false -o "$build/gaia-exp" github.com/carbonsched/gaia/cmd/gaia-exp
)

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
cd "$root"
exec "$build/gaia-benchmark" -gaia-exp "$build/gaia-exp" -commit "$commit" "$@"
