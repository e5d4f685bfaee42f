#!/usr/bin/env bash
# crash.sh runs the deterministic crash-recovery matrix
# (internal/chaos TestCrashMatrix) over a set of workload seeds under
# the race detector. For each seed it replays a seeded catalog
# workload (TPC-H DDL, segment-file registration, stats updates,
# resource queues, multi-record transactions, explicit aborts, a VACUUM
# under a reader whose snapshot spans it) and
# crashes the master at EVERY fsync boundary — three ways each: before
# the fsync persists anything, mid-fsync (a prefix of the dirty bytes
# reaches the platter), and just after the fsync but before the ack —
# plus seeded torn-write byte positions. After every crash the master
# reboots from the surviving bytes and the recovered catalog must be
# byte-identical to the committed prefix of the workload: no lost
# commit, no resurrected abort, no invented rows, a cleanly truncated
# torn tail, and never a panic.
#
# Usage:
#   scripts/crash.sh            # default 20 seeds, -race
#   scripts/crash.sh 50         # more seeds
#   CRASH_SEEDS=8 scripts/crash.sh
#
# The matrix is deterministic: when a seed fails, the test log carries
# a one-line repro (grep "repro:") that re-runs exactly that seed, and
# this script echoes those lines after a failing run.
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${1:-${CRASH_SEEDS:-20}}"

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

echo "==> crash matrix: $SEEDS seeds under -race"
if ! go test -race -count=1 -timeout 900s \
        -run 'TestCrashMatrix|TestCrashWorkloadIsDeterministic|TestPromoteFault' \
        ./internal/chaos -crash.seeds="$SEEDS" -v 2>&1 | tee "$OUT" | grep -E '^(=== RUN|--- (PASS|FAIL)|ok|FAIL|PASS)'; then
    echo
    echo "==> crash matrix FAILED; one-line repros:"
    grep -F 'repro:' "$OUT" || echo "    (no repro line captured — see full log above)"
    exit 1
fi

echo "==> crash matrix passed ($SEEDS seeds)"
