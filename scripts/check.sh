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
#                                  a sort spills only to workfiles, no
#                                  second block framing, header parser
#                                  or columnar writer returns, no
#                                  package but storage names a column
#                                  file's path, and the planner neither
#                                  resolves a join's sides by name nor
#                                  keeps per-relation equivalence lists,
#                                  and no second record of a table's
#                                  rows (hawq_stat_mod and its modcount
#                                  calls) or workfile frame compression
#                                  returns, no plan node or operator of
#                                  DISTINCT's or of a partitioned
#                                  table's own (Distinct, Append) comes
#                                  back, the WAL keeps no records,
#                                  an aggregate's pass orders its
#                                  groups without a comparison sort,
#                                  no second hash of a Datum (the
#                                  byte-wise FNV placement hash and its
#                                  reference) returns, and no code but
#                                  internal/types reduces a hash to a
#                                  segment with a modulo (Stinger's
#                                  MapReduce shuffle, which picks a
#                                  reducer, is not a segment), and no
#                                  second record of a gang (the plan's
#                                  deferred-dispatch list), no portal
#                                  or bind acknowledgement, and no
#                                  sort row limit of a test's own
#                                  comes back, and no statement enters
#                                  internal/engine but through the one
#                                  lifecycle: no private COPY or
#                                  maintenance path (copyInTx,
#                                  runMaintenanceSQL), three
#                                  TxMgr.Begin sites (BEGIN, the
#                                  lifecycle, the boot-time queue
#                                  read) and one caller of
#                                  beginStatement, and no second record
#                                  of a column's statistics returns:
#                                  no hawq_stat_col, no auto-ANALYZE
#                                  task or churn threshold, and no
#                                  self-issued count(DISTINCT …) in
#                                  internal/engine, and a column page
#                                  is walked once: no second walk for
#                                  its zone map (buildZone) and no
#                                  per-row statistics in the columnar
#                                  writer, and a planned tree is never
#                                  written: no per-node plan copy
#                                  (cloneNode, expr.Clone) and no
#                                  clock stamped into a plan's
#                                  expressions (BindClock) returns
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
ignore_budget=79
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
if grep -rnE 'block[M]agic|appendBlock[V]2|parse[A]OBlock|parse[C]OBlock|group[M]agicV2|co[W]riter|parquet[W]riter|parse[F]n' internal cmd bench_test.go; then
    echo "stays deleted: a second block framing, its parser or a second columnar writer is back; every format frames row groups (see above)" >&2
    exit 1
fi
if grep -rnE '[Cc]ol[F]ilePath' --include='*.go' --exclude='*_test.go' --exclude-dir=storage internal cmd; then
    echo "stays deleted: only internal/storage knows which files make up a lane; ask storage.LaneFiles (see above)" >&2
    exit 1
fi
if grep -rnE 'eq[S]ides|edge[K]eys|same[C]ol|units[R]eferenced' internal cmd bench_test.go || grep -rnE 'equiv +\[\]\[\]int' internal/planner; then
    echo "stays deleted: the planner resolves a join's sides by name again or keeps per-relation equivalence lists; a column has one id and the block's classes say which are equal (see above)" >&2
    exit 1
fi
if grep -rnE 'hawq_stat_[m]od|BumpMod[C]ount|ModCount[F]or|ResetMod[C]ount|Spill[C]odec' internal cmd; then
    echo "stays deleted: a second record of a table's rows or the workfiles' frame compression is back; the row count is the segment files' tuples (see above)" >&2
    exit 1
fi
if grep -rnE 'hawq_stat_[c]ol|SysStat[C]ol|TaskKind[A]nalyze|AnalyzeMin[R]ows|analyze[C]andidate' internal cmd ||
    grep -nE 'count\(DISTIN[C]T' $(ls internal/engine/*.go | grep -v '_test\.go$'); then
    echo "stays deleted: a second record of a column's statistics, the auto-ANALYZE tenant or ANALYZE's self-issued statement is back; statistics ride in each lane's hawq_aoseg row, written with the data (see above)" >&2
    exit 1
fi
if grep -rnE 'build[Z]one\(dst \[\]byte, vals' internal || grep -nE 'stats\.[A]dd\(' internal/storage/columnar.go; then
    echo "stays deleted: a column page is walked once, and its encoding, zone map and share of the lane's statistics all come from that pass (pagePass); a columnar lane's statistics take pages, not rows (see above)" >&2
    exit 1
fi
if grep -rnE 'type (Distinct|Append) struct' internal/plan || grep -rnE 'distinct[O]p|append[O]p|records +\[\][R]ecord' internal; then
    echo "stays deleted: SELECT DISTINCT is a HashAgg with no aggregates, a partitioned table is one Scan, and the WAL keeps no history (see above)" >&2
    exit 1
fi
if awk '/^func \(a \*hashAggOp\) endPass\(|^func radixOrder\(/,/^}/' internal/executor/agg.go | grep -nE 'slices\.Sort|sort\.|cmp\.Compare'; then
    echo "stays deleted: an aggregate's pass orders its groups by a radix pass over their hashes, not a comparison sort (see above)" >&2
    exit 1
fi
if grep -rnE 'hash[D]atum|fnv[B]yte|fnv[U]int64|refHash[R]owCols' internal; then
    echo "stays deleted: a second hash of a Datum is back; placement, motions and key tables share types.HashKeys (see above)" >&2
    exit 1
fi
if grep -rnE '% uint64\(' --include='*.go' --exclude-dir=types --exclude-dir=stinger internal cmd; then
    echo "stays deleted: a hash is reduced to a segment outside internal/types; call types.SegmentOf (see above)" >&2
    exit 1
fi
if grep -rnE 'Deferred[D]irect\b|MsgBind[O]K|portal[S]tate|SortMem[R]ows' internal; then
    echo "stays deleted: a slice's Segments is the one record of its gang, a prepared execution is one Execute message, and a sort spills only into the query's workfile store (see above)" >&2
    exit 1
fi
if grep -rnE 'copyIn[T]x|runMaintenance[S]QL' internal cmd; then
    echo "stays deleted: COPY shares INSERT's write path, and a maintenance task runs through the statement lifecycle under the scheduler's context (see above)" >&2
    exit 1
fi
if grep -rnE 'clone[N]ode|clone[E]xpr|CloneAgg[S]pec|expr\.Clo[n]e\(|Bind[C]lock' internal cmd bench_test.go; then
    echo "stays deleted: a plan is read-only once planned; an operator binds the arguments and the clock into its own copy of an expression as it is built (expr.Bind), and plan.Clone copies only the header (see above)" >&2
    exit 1
fi
engine_src="$(ls internal/engine/*.go | grep -v '_test\.go$')"
begins="$(grep -h 'TxMgr\.Begin(' $engine_src | wc -l)"
starts="$(grep -h 'beginStatement(' $engine_src | grep -v '^func ' | wc -l)"
if (( begins != 3 || starts != 1 )); then
    grep -n 'TxMgr\.Begin(\|beginStatement(' $engine_src >&2
    echo "stays deleted: internal/engine begins a transaction only for BEGIN, the statement lifecycle and the boot-time queue read ($begins sites, want 3), and only the lifecycle arms a statement ($starts callers of beginStatement, want 1); run a statement through Session.runTransactional (see above)" >&2
    exit 1
fi

echo "==> bench smoke (-benchtime=1x -race)"
scripts/bench.sh --smoke

echo "==> chaos harness (fixed seeds, -race)"
scripts/chaos.sh

echo "==> crash-recovery matrix (fixed seeds, -race)"
scripts/crash.sh

echo "All checks passed."
