#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload forkjoin|serve|figures --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, the binary and the
# traced run's span files stay inside the checkout (.bench_build,
# .bench_out), and the build never reaches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -spandir "$root/.bench_out" "$@"
