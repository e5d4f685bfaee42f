#!/usr/bin/env bash
# check.sh is the repository's correctness gate. It runs, in order:
#
#   1. go build ./...            — everything compiles
#   1b. gofmt -l                 — every tracked .go file (both
#                                  modules) is gofmt-clean
#   2. go vet ./...              — stdlib static analysis
#   3. go run ./cmd/hawq-check   — the project's own invariant suite:
#                                  the per-function v1 analyzers
#                                  (mutexdiscipline, goleak, errdrop,
#                                  determinism, docstrings) and the
#                                  whole-program v2 analyzers
#                                  (lockorder, ctxflow, batchlife,
#                                  clockwall, wiresafe). Fails on any
#                                  non-suppressed finding and archives
#                                  the -json report under build/ (an
#                                  untracked artifacts dir) for CI
#                                  upload.
#   3b. suppression budget       — the number of //hawqcheck:ignore
#                                  directives may fall, never rise: a
#                                  new finding is fixed, not waved
#                                  through
#   4. go test -race -count=1 ./...
#                                — the full test suite, uncached, under
#                                  the race detector, including the
#                                  goroutine leak checkers wired into
#                                  TestMain. Every named gate this
#                                  script once re-ran afterwards (spill
#                                  parity, EXPLAIN ANALYZE, serving,
#                                  block cache, typed vectors, join,
#                                  scan errors) is a set of tests this
#                                  step runs
#   4c. concurrency cell         — a 16-session hawq-bench concurrency
#                                  cell end to end under -race: the
#                                  binary, not the package tests
#   4d. benchmark module         — benchmark/ is a Go module of its
#                                  own, so the root go vet / go test
#                                  never compile it: vet it and run its
#                                  smoke tests here, so a change to an
#                                  API its probes call (plan.Encode/
#                                  Decode/Clone, cluster.Dispatch,
#                                  session, interconnect.NewUDPNode)
#                                  fails locally, not in the pipeline
#   4e. stays deleted            — the join's old key encoding, the
#                                  runtime bloom filters, the
#                                  string-keyed group maps with their
#                                  second key normal form, the scan's
#                                  producer goroutine with its feed and
#                                  mode handshake and the row-batch
#                                  expression kernels are not back, no
#                                  frame is written to a served
#                                  connection's raw socket again, the
#                                  executor starts no goroutine, no
#                                  second form of "column ⋄ constant"
#                                  (zone operators, the planner's own
#                                  recognizer, the HBase text parser —
#                                  no regexp in internal/pxf) returns,
#                                  and a sort spills only to workfiles
#   5. scripts/bench.sh --smoke  — every micro-benchmark for one
#                                  iteration under -race, so the bench
#                                  harness itself can't rot
#   6. scripts/chaos.sh          — the deterministic chaos harness over
#                                  a fixed seed set under -race: random
#                                  fault schedules against TPC-H must
#                                  yield correct results or clean
#                                  errors, never hangs/leaks
#   7. scripts/crash.sh          — the crash-recovery matrix under
#                                  -race: the master is crashed at
#                                  every fsync boundary and at seeded
#                                  torn-write byte positions of seeded
#                                  catalog workloads, and the recovered
#                                  catalog must equal the committed
#                                  prefix exactly
#
# Every step must pass. CI runs exactly this script; run it locally
# before sending a change.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l"
unformatted="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> hawq-check ./..."
go run ./cmd/hawq-check ./...

echo "==> hawq-check -json report (build/hawq-check-report.json)"
mkdir -p build
go run ./cmd/hawq-check -json ./... > build/hawq-check-report.json

echo "==> hawqcheck:ignore budget"
# Raise this number only with a reason in the commit message; lower it
# whenever a suppression goes away.
ignore_budget=84
ignores="$(git ls-files -z --cached --others --exclude-standard '*.go' | xargs -0 grep -h '//hawqcheck:ignore' | wc -l)"
if (( ignores > ignore_budget )); then
    echo "hawqcheck:ignore count rose to $ignores (budget $ignore_budget): fix the finding instead of suppressing it" >&2
    exit 1
fi

echo "==> go test -race -count=1 ./..."
go test -race -count=1 ./...

echo "==> hawq-bench concurrency cell (-race)"
go run -race ./cmd/hawq-bench -exp concurrency -concurrency 16 -ops 64

echo "==> benchmark module (go vet + go test in benchmark/)"
(cd benchmark && go vet ./... && go test ./...)

echo "==> stays deleted"
# One letter of each name is bracketed so that this line is no match
# for its own pattern.
if grep -rnE 'buildBucket|appendJoinKey|rtfHash|partOf\(|Filter[H]ub|Runtime[F]ilter|apply[B]loomVec|rtfilter[_]removed|map\[string\][i]nt32|partOf[B]ytes|add[B]ytes|\*Vector\) Append[K]ey|writeMsg\([c]onn' internal cmd bench_test.go; then
    echo "stays deleted: the join's old key encoding, the runtime filters, the string-keyed group maps or an unbuffered reply write are back (see above)" >&2
    exit 1
fi
if grep -rnE 'batch[F]eed|feed[I]tem|Enable[V]ec|errScan[S]topped|func Filter[B]atch|func Project[B]atch' internal cmd bench_test.go; then
    echo "stays deleted: the scan's producer goroutine, its feed, the vector/row mode handshake or the row-batch kernels are back (see above)" >&2
    exit 1
fi
if grep -nE 'go func' $(ls internal/executor/*.go | grep -v '_test\.go$'); then
    echo "stays deleted: a slice runs on one goroutine; internal/executor starts none (see above)" >&2
    exit 1
fi
if grep -rnE 'parseKey[F]ilter|filter[C]onjuncts|Pushed[F]ilter|zoneOp[O]f|func col[V]alue|type Zone[O]p|spill[R]un|hawq-[s]ort-' internal cmd bench_test.go; then
    echo "stays deleted: a second comparison form (storage's zone operators, the planner's recognizer, the HBase text parser) or the sort's bare temp-file runs are back (see above)" >&2
    exit 1
fi
if grep -nE '"regexp"' $(ls internal/pxf/*.go | grep -v '_test\.go$'); then
    echo "stays deleted: a connector reads its pushed filter as expr.ColCmp values, never by parsing text (see above)" >&2
    exit 1
fi

echo "==> bench smoke (-benchtime=1x -race)"
scripts/bench.sh --smoke

echo "==> chaos harness (fixed seeds, -race)"
scripts/chaos.sh

echo "==> crash-recovery matrix (fixed seeds, -race)"
scripts/crash.sh

echo "All checks passed."
