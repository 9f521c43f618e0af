#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout and runs
# it with the arguments given. Everything the Go toolchain writes (build cache,
# temporary files, module cache, its own configuration and telemetry counters)
# is pointed into .bench_build/ too, so nothing is written outside the
# checkout. BENCHMARK.json names this script as the benchmark's command; the
# driver appends
#   --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/odbgc-bench" .)
# The driver's checkout is not a git repository; a developer's is, and the
# result record then names the commit.
BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
cd "$root"
exec "$build/odbgc-bench" "$@"
