#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark from source into
# .bench_build/ at the root of the checkout (the build cache goes there
# too, so nothing is written outside the checkout) and runs it from this
# directory with the arguments given:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
cd "$here"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly go build -o "$build/bench" .
exec "$build/bench" "$@"
