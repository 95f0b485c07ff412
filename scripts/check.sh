#!/usr/bin/env bash
# check.sh — the repo's one-stop verification gate.
#
# Runs, in order:
#   1. gofmt -l .                                    formatting gate
#      (internal/lint/testdata is excluded: fixtures pin exact line/column
#      positions and deliberately odd layouts)
#   2. scripts/lint.sh                               go vet + adwsvet
#      adwsvet (cmd/adwsvet, docs/LINT.md) enforces the scheduler's
#      concurrency invariants: hot-path purity and allocation-freedom,
#      trace-event switch exhaustiveness, lock annotations, the ban on
#      function-form sync/atomic, and the global lock-rank order.
#      Findings not recorded in lint-baseline.json fail the gate.
#   3. go build ./...                                everything compiles
#   4. go test ./...                                 full test suite,
#      including the pad_test.go cache-line layout tests
#   5. go test -count=20 . ./internal/runtime/       flake tripwire
#      The Run-vs-Submit trace comparisons and the scheduler tests must
#      pass every time, not most times; twenty repeats catch a test that
#      depends on timing.
#   6. go test -race on the root package + internal/runtime +
#      internal/trace + internal/server + internal/cluster +
#      internal/obs + internal/metrics + cmd/adwsd
#      The runtime's lock-free deques, the tracer's per-worker ring
#      buffers, the job-serving admission path, the cluster's routing
#      ledger, the watchdog and the sharded metrics recorders are the
#      places where a data race would silently corrupt results; the race
#      detector is the authority on all of them.
#   7. go test -run='^$' -bench=. -benchtime=1x ./...   benchmark smoke
#      One iteration of every benchmark, so a refactor that breaks a
#      benchmark harness (or deadlocks the parked-pool submit path) fails
#      here instead of at measurement time.
#   8. ADWS_BENCH_SMOKE=1 flight-recorder overhead gate
#      Measures the spawn-heavy tree with and without the always-on
#      flight recorder (internal/runtime TestFlightOverheadSmoke) and
#      fails if the recorder-on run exceeds a generous 1.5x budget; the
#      precise <=3% acceptance numbers live in results/flight_recorder.txt.
#   9. scripts/bench.sh -smoke                       trajectory smoke
#      Schema-checks every committed BENCH_*.json perf-trajectory point
#      and does one tiny adwsload run whose /metrics exposition is
#      re-parsed with the strict internal parser, so a registry change
#      that breaks scrapes or the committed trajectory fails here.
#
# Watchdog flight-recorder dumps written during the run (any test whose
# watchdog fires without an explicit DumpDir) land in $ADWS_FR_DIR,
# defaulting to ./fr-dumps here so CI can upload them as artifacts when
# a step fails.
#
# Usage: scripts/check.sh   (from the repo root, or anywhere inside it)
set -euo pipefail

cd "$(dirname "$0")/.."

export ADWS_FR_DIR="${ADWS_FR_DIR:-$PWD/fr-dumps}"
mkdir -p "$ADWS_FR_DIR"

echo "==> gofmt -l . (excluding internal/lint/testdata)"
fmt_out=$(gofmt -l . | grep -v 'internal/lint/testdata/' || true)
if [ -n "$fmt_out" ]; then
    echo "gofmt needed on:"
    echo "$fmt_out"
    exit 1
fi

scripts/lint.sh

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -count=20 . ./internal/runtime/   (flake tripwire)"
go test -count=20 . ./internal/runtime/

echo "==> go test -race . ./internal/runtime/... ./internal/trace/... ./internal/server/... ./internal/cluster/... ./internal/obs/... ./internal/metrics/... ./cmd/adwsd/..."
go test -race . ./internal/runtime/... ./internal/trace/... ./internal/server/... ./internal/cluster/... ./internal/obs/... ./internal/metrics/... ./cmd/adwsd/...

echo "==> go test -run='^\$' -bench=. -benchtime=1x ./...   (benchmark smoke)"
go test -run='^$' -bench=. -benchtime=1x ./...

echo "==> ADWS_BENCH_SMOKE=1 flight-recorder overhead gate"
ADWS_BENCH_SMOKE=1 go test ./internal/runtime/ -run TestFlightOverheadSmoke -count=1

scripts/bench.sh -smoke

echo "OK: all checks passed"
