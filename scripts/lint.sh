#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate.
#
# Runs, in order:
#   1. go vet ./...              the standard toolchain checks; its
#      copylocks check is the one guard against copying a typed atomic
#   2. go run ./cmd/adwsvet ./...   the project's own analyzers (see
#      docs/LINT.md): hotpath, evexhaustive, lockedby, atomiconly,
#      lockorder, hotalloc — the scheduler's concurrency invariants that
#      go vet cannot see. Cache-line padding is guarded by the pad_test.go
#      layout tests, not here.
#
# Self-check: ./... includes cmd/adwsvet and internal/lint themselves, so
# the suite runs over its own sources every time (go list skips only the
# testdata fixtures, which are deliberately violation-laden).
#
# Baseline: when lint-baseline.json exists at the repo root, findings
# recorded in it are suppressed (burn-down list; regenerate with
# `go run ./cmd/adwsvet -writebaseline lint-baseline.json ./...`). Any
# NON-baselined finding still fails the gate. The tree is currently
# clean, so no baseline file is committed.
#
# Usage: scripts/lint.sh   (from the repo root, or anywhere inside it)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> adwsvet ./..."
if [ -f lint-baseline.json ]; then
    go run ./cmd/adwsvet -baseline lint-baseline.json ./...
else
    go run ./cmd/adwsvet ./...
fi
