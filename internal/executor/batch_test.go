package executor

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/interconnect"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// writeIntsTable writes an all-numeric AO table (uncompressed, so the
// benchmarks measure execution rather than the codec) and returns the
// pieces a Scan node needs.
func writeIntsTable(tb testing.TB, nrows int) (*hdfs.FileSystem, *catalog.TableDesc, []catalog.SegFile) {
	tb.Helper()
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	schema := intsSchema("k", "v", "w")
	desc := &catalog.TableDesc{
		OID: 1, Name: "bt", Schema: schema,
		Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
	}
	sf := catalog.SegFile{TableOID: 1, SegmentID: 0, SegNo: 1, Path: "/bench/bt/0/1"}
	w, err := storage.NewWriter(fs, desc.Storage, schema, sf, hdfs.CreateOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < nrows; i++ {
		row := types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i % 97)), types.NewInt64(int64(i % 7))}
		if err := w.Append(row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	sf.LogicalLen, sf.ColLens = w.Lens()
	sf.Tuples = w.Tuples()
	return fs, desc, []catalog.SegFile{sf}
}

// sfpTree builds a scan → filter → project pipeline over the table.
func sfpTree(desc *catalog.TableDesc, segFiles []catalog.SegFile) plan.Node {
	colK := &expr.ColRef{Idx: 0, K: types.KindInt64}
	colV := &expr.ColRef{Idx: 1, K: types.KindInt64}
	scan := &plan.Scan{Table: desc, Proj: []int{0, 1, 2}, SegFiles: segFiles, Schema: desc.Schema}
	sel := &plan.Select{Input: scan, Pred: expr.NewBinOp(expr.OpLt, colV, expr.NewConst(types.NewInt64(48)))}
	return &plan.Project{
		Input:  sel,
		Exprs:  []expr.Expr{expr.NewBinOp(expr.OpAdd, colK, colV), colV},
		Schema: intsSchema("s", "v"),
	}
}

// intsTableRows regenerates the rows writeIntsTable wrote, for the
// reference.
func intsTableRows(nrows int) []types.Row {
	rows := make([]types.Row, nrows)
	for i := range rows {
		rows[i] = types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i % 97)), types.NewInt64(int64(i % 7))}
	}
	return rows
}

// seqRows builds n rows of (i, f(i)).
func seqRows(n int, f func(i int) int64) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), f(i)}
	}
	return rows
}

// TestPipelinesMatchReference runs representative operator trees and
// requires the rows the plain-loop reference computes, including the
// cases where an operator's output, or its input, crosses a batch
// boundary part-way through.
func TestPipelinesMatchReference(t *testing.T) {
	const nrows = 3000
	fs, desc, segFiles := writeIntsTable(t, nrows)
	tables := map[string][]types.Row{desc.Name: intsTableRows(nrows)}
	colK := &expr.ColRef{Idx: 0, K: types.KindInt64}
	colV := &expr.ColRef{Idx: 1, K: types.KindInt64}
	scan := func(proj []int, names ...string) *plan.Scan {
		return &plan.Scan{Table: desc, Proj: proj, SegFiles: segFiles, Schema: intsSchema(names...)}
	}
	// One probe key with more build matches than a batch holds: emission
	// must resume mid-match-list on the next call. rv runs 0..2499.
	fat := func(kind plan.JoinKind, extra expr.Expr) *plan.HashJoin {
		left := valuesNode(intsSchema("lk", "lv"), []int64{7, 1}, []int64{8, 2}, []int64{7, 3}, []int64{9, 4})
		left.Rows = append(left.Rows, types.Row{types.Null, types.NewInt64(5)})
		build := [][]int64{{9, -1}}
		for i := 0; i < 2500; i++ {
			build = append(build, []int64{7, int64(i)})
		}
		right := valuesNode(intsSchema("rk", "rv"), build...)
		return &plan.HashJoin{Kind: kind, Left: left, Right: right, LeftKeys: []int{0}, RightKeys: []int{0},
			ExtraPred: extra, Schema: left.Schema.Concat(right.Schema)}
	}
	rv := &expr.ColRef{Idx: 3, K: types.KindInt64}
	extras := map[string]expr.Expr{
		"":            nil,
		"/extra-some": expr.NewBinOp(expr.OpGe, rv, expr.NewConst(types.NewInt64(1200))),
		"/extra-none": expr.NewBinOp(expr.OpLt, rv, expr.NewConst(types.NewInt64(-5))),
	}
	type tree struct {
		node    plan.Node
		ordered bool
		ctx     func(t *testing.T) *Context
	}
	plain := func(*testing.T) *Context { return &Context{Segment: 0, FS: fs} }
	trees := map[string]tree{
		"scan-filter-project": {sfpTree(desc, segFiles), true, plain},
		"agg": {&plan.HashAgg{
			Input:  scan([]int{0, 1, 2}, "k", "v", "w"),
			Phase:  plan.AggSingle,
			Groups: []expr.Expr{colV},
			Aggs:   []expr.AggSpec{{Kind: expr.AggSum, Arg: colK}, {Kind: expr.AggCountStar}},
			Schema: intsSchema("v", "sum", "count"),
		}, false, plain},
		"sort": {&plan.Sort{
			Input: scan([]int{1, 0}, "v", "k"),
			Keys:  []plan.OrderKey{{Col: 0}, {Col: 1, Desc: true}},
		}, true, plain},
		"join": {&plan.HashJoin{
			Kind:      plan.InnerJoin,
			Left:      scan([]int{0, 1}, "k", "v"),
			Right:     valuesNode(intsSchema("rk"), []int64{3}, []int64{5}, []int64{90}),
			LeftKeys:  []int{1},
			RightKeys: []int{0},
			Schema:    intsSchema("k", "v", "rk"),
		}, true, plain},
		"nestloop-left": {&plan.NestLoopJoin{
			Kind:   plan.LeftJoin,
			Left:   scan([]int{0, 1}, "k", "v"),
			Right:  valuesNode(intsSchema("b"), []int64{2}, []int64{6}, []int64{50}),
			Pred:   expr.NewBinOp(expr.OpLt, colV, &expr.ColRef{Idx: 2, K: types.KindInt64}),
			Schema: intsSchema("k", "v", "b"),
		}, true, plain},
		"distinct": {&plan.Distinct{Input: scan([]int{1, 2}, "v", "w")}, true, plain},
		// OFFSET ends inside the first batch, LIMIT inside the third.
		"limit-cuts-batches": {&plan.Limit{N: 1500, Offset: 1000,
			Input: valuesNode(intsSchema("a", "b"), seqRows(3000, func(i int) int64 { return int64(-i) })...),
		}, true, plain},
		// OFFSET swallows whole batches, LIMIT takes two rows off a seam.
		"limit-on-seam": {&plan.Limit{N: 2, Offset: 2*int64(types.DefaultBatchRows) - 1,
			Input: valuesNode(intsSchema("a", "b"), seqRows(3000, func(i int) int64 { return int64(i % 5) })...),
		}, true, plain},
		// Each run is 2500 rows, i.e. three 1024-row workfile frames: the
		// merge crosses reader-batch boundaries in every run.
		"sort-workfile-merge": {&plan.Sort{
			Input: valuesNode(intsSchema("k", "v"), seqRows(10000, func(i int) int64 { return int64((i * 7919) % 1000) })...),
			Keys:  []plan.OrderKey{{Col: 1}},
		}, true, func(t *testing.T) *Context {
			ctx, _ := spillCtx(t, 1<<30)
			ctx.SortMemRows = 2500
			return ctx
		}},
	}
	for _, kind := range []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.SemiJoin, plan.AntiJoin} {
		for name, extra := range extras {
			trees[fmt.Sprintf("fat-join-%d%s", kind, name)] = tree{fat(kind, extra), true, plain}
		}
	}
	for name, tr := range trees {
		t.Run(name, func(t *testing.T) {
			sameRows(t, collect(t, tr.ctx(t), tr.node), refRows(t, tr.node, tables), tr.ordered)
		})
	}
}

// TestSpilledAggFillsBatchesAcrossPartitions: 3000 groups under a 1 KiB
// work_mem — the table in memory holds a handful, the rest come back a
// partition at a time. The groups must be the reference's, and every
// batch but the last full: emission does not stop at a partition's end.
func TestSpilledAggFillsBatchesAcrossPartitions(t *testing.T) {
	ctx, st := spillCtx(t, 1<<10)
	tree := &plan.HashAgg{
		Input:  valuesNode(intsSchema("g", "v"), seqRows(9000, func(i int) int64 { return int64(i % 3000) })...),
		Phase:  plan.AggSingle,
		Groups: []expr.Expr{&expr.ColRef{Idx: 1, K: types.KindInt64}},
		Aggs:   []expr.AggSpec{{Kind: expr.AggSum, Arg: &expr.ColRef{Idx: 0, K: types.KindInt64}}, {Kind: expr.AggCountStar}},
		Schema: intsSchema("g", "sum", "count"),
	}
	op := mustBuild(t, ctx, tree)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	b := types.GetBatch(0)
	defer types.PutBatch(b)
	var sizes []int
	var got []types.Row
	for {
		ok, err := op.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		sizes = append(sizes, b.Len())
		for i := 0; i < b.Len(); i++ {
			got = append(got, b.Row(i).Clone())
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1024, 1024, 952}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("batch sizes %v, want %v", sizes, want)
	}
	if st.Live() != 0 {
		t.Errorf("%d workfiles leaked", st.Live())
	}
	sameRows(t, got, refRows(t, tree, nil), false)
}

// TestDistinctHonoursMemoryGrant: DISTINCT's key set is charged to the
// query's grant — a grant it outgrows is a clean out-of-memory error
// with nothing left reserved, and a grant it fits reports its peak.
func TestDistinctHonoursMemoryGrant(t *testing.T) {
	tree := &plan.Distinct{Input: valuesNode(intsSchema("a", "b"), seqRows(5000, func(i int) int64 { return int64(i) })...)}
	ctx := &Context{Segment: 0, Mem: resource.NewAccount(4 << 10)}
	err := Drain(nil, mustBuild(t, ctx, tree), func(types.Row) error { return nil })
	if !errors.Is(err, resource.ErrOutOfMemory) {
		t.Fatalf("got %v, want ErrOutOfMemory", err)
	}
	if got := ctx.Mem.Used(); got != 0 {
		t.Fatalf("reservation leaked after OOM: %d bytes", got)
	}

	ctx = &Context{Segment: 0, Mem: resource.NewAccount(8 << 20)}
	ctx.Stats = NewStatsRecorder(nil, tree, 0, 0)
	if got := len(collect(t, ctx, tree)); got != 5000 {
		t.Fatalf("distinct rows = %d", got)
	}
	if peak := ctx.Stats.Stats().Ops[0].PeakMem; peak == 0 || peak != ctx.Mem.Peak() {
		t.Errorf("PeakMem = %d, account peak %d", peak, ctx.Mem.Peak())
	}
	if got := ctx.Mem.Used(); got != 0 {
		t.Errorf("reservation leaked: %d bytes", got)
	}
}

// TestVecScanErrorReachesAgg: a hash agg absorbing encoded vectors from a
// scan that fails must return the scan's error, never the aggregate of
// whatever arrived first. The producer's end-of-stream and its error
// reach the consumer from different steps of its goroutine, so each case
// is looped (scripts/check.sh re-runs the test under -cpu 2,8).
func TestVecScanErrorReachesAgg(t *testing.T) {
	colK := &expr.ColRef{Idx: 0, K: types.KindInt64}
	colV := &expr.ColRef{Idx: 1, K: types.KindInt64}
	for _, tc := range []struct {
		name         string
		nrows, iters int
		lenDelta     int64 // added to every committed column length
	}{
		// Lengths past the physical end: the scan fails before its first
		// block. Cheap, so this is the case with the iterations.
		{"fails-at-open", 3000, 20000, 64},
		// Lengths that cut the second block short: the first block's
		// groups are in the agg when the scan fails.
		{"fails-after-a-block", 10000, 1000, -5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := hdfs.New(hdfs.Config{DataNodes: 3})
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]types.Row, tc.nrows)
			for i := range rows {
				rows[i] = types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i % 13))}
			}
			desc, segFiles := writeCOTable(t, fs, 7, "bad", intsSchema("k", "v"), rows)
			for i := range segFiles[0].ColLens {
				segFiles[0].ColLens[i] += tc.lenDelta
			}
			tree := &plan.HashAgg{
				Input:  &plan.Scan{Table: desc, Proj: []int{0, 1}, SegFiles: segFiles, Schema: desc.Schema},
				Phase:  plan.AggSingle,
				Groups: []expr.Expr{colV},
				Aggs:   []expr.AggSpec{{Kind: expr.AggSum, Arg: colK}},
				Schema: intsSchema("v", "sum"),
			}
			if vs, ok := mustBuild(t, &Context{Segment: 0, FS: fs}, tree.Input).(VecSource); !ok || !vs.EnableVec() {
				t.Fatal("scan did not enter vector mode: the test no longer covers the vec hand-off")
			}
			iters := tc.iters
			if testing.Short() {
				iters /= 10
			}
			for i := 0; i < iters; i++ {
				n := 0
				err := Drain(nil, mustBuild(t, &Context{Segment: 0, FS: fs}, tree), func(types.Row) error { n++; return nil })
				if err == nil {
					t.Fatalf("iteration %d: failing scan drained cleanly with %d groups", i, n)
				}
			}
		})
	}
}

// TestVecModeScanRejectsNextBatch: a scan switched to vector delivery
// and then pulled through NextBatch reports an error rather than a clean
// empty result.
func TestVecModeScanRejectsNextBatch(t *testing.T) {
	fs, desc, segFiles := writeIntsTable(t, 100)
	op := mustBuild(t, &Context{Segment: 0, FS: fs}, &plan.Scan{Table: desc, Proj: []int{0, 1, 2}, SegFiles: segFiles, Schema: desc.Schema})
	if !op.(VecSource).EnableVec() {
		t.Fatal("unfiltered scan refused vector mode")
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	b := types.GetBatch(0)
	defer types.PutBatch(b)
	if ok, err := op.NextBatch(b); ok || err == nil {
		t.Fatalf("NextBatch in vector mode = (%v, %v), want an error", ok, err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPipelineAllocBudget pins the amortized allocation cost of the
// operators that write into the caller's batch: well under one
// allocation per output row. Catches regressions that reintroduce
// per-row allocation.
func TestBatchPipelineAllocBudget(t *testing.T) {
	const nrows = 4096
	fs, desc, segFiles := writeIntsTable(t, nrows)
	scan := &plan.Scan{Table: desc, Proj: []int{0, 1, 2}, SegFiles: segFiles, Schema: desc.Schema}
	colK := &expr.ColRef{Idx: 0, K: types.KindInt64}
	var build [][]int64
	for i := 0; i < 97; i++ {
		build = append(build, []int64{int64(i)})
	}
	ctx := &Context{Segment: 0, FS: fs}
	rows := 0
	drain := func(tree plan.Node) func() {
		return func() {
			rows = 0
			if err := Drain(nil, mustBuild(t, ctx, tree), func(types.Row) error { rows++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, tree := range map[string]plan.Node{
		"scan-filter-project": sfpTree(desc, segFiles),
		// Every probe row matches once: 4096 output rows over a build side
		// of 97 cloned rows.
		"join": &plan.HashJoin{
			Kind: plan.InnerJoin, Left: scan, Right: valuesNode(intsSchema("rk"), build...),
			LeftKeys: []int{1}, RightKeys: []int{0}, Schema: intsSchema("k", "v", "w", "rk"),
		},
	} {
		run := drain(tree)
		run() // warm pools before measuring
		if rows < nrows/4 {
			t.Fatalf("%s: %d rows", name, rows)
		}
		if avg := testing.AllocsPerRun(5, run); avg > nrows/4 {
			t.Errorf("%s allocates %.0f times per %d rows (budget %d)", name, avg, nrows, nrows/4)
		}
	}
	// 4096 groups out. The table pays a few allocations per group going
	// in (key, accumulators, map entry) — what a run costs that stops
	// before the first output row — and emitting them must add none per
	// row on top.
	agg := &plan.HashAgg{
		Input: scan, Phase: plan.AggSingle, Groups: []expr.Expr{colK},
		Aggs:   []expr.AggSpec{{Kind: expr.AggCountStar}},
		Schema: intsSchema("k", "count"),
	}
	errStop := errors.New("stop")
	absorbOnly := func() {
		if err := Drain(nil, mustBuild(t, ctx, agg), func(types.Row) error { return errStop }); !errors.Is(err, errStop) {
			t.Fatal(err)
		}
	}
	full := drain(agg)
	full()
	if rows != nrows {
		t.Fatalf("agg: %d groups", rows)
	}
	absorbOnly()
	in, out := testing.AllocsPerRun(5, absorbOnly), testing.AllocsPerRun(5, full)
	if out-in > nrows/4 {
		t.Errorf("emitting %d groups allocates %.0f times beyond the %.0f of absorbing them (budget %d)", nrows, out-in, in, nrows/4)
	}
	// The Q1 shape over warm vectors: absorbing a batch costs a constant
	// number of allocations, not one per row — building the operators and
	// growing their scratch, then nothing that scales with the 16 000 rows.
	li, liFiles := writeCOTable(t, fs, 20, "li", liSchema, liRows(rand.New(rand.NewSource(3)), 4*nrows))
	filter, groups, aggs := q1Shape()
	warm := &Context{Segment: 0, FS: fs, Cache: newWarmCache(t, fs, li, liFiles)}
	q1 := func() {
		if got := collect(t, warm, liAgg(li, liFiles, filter, true, groups, aggs)); len(got) != 12 {
			t.Fatalf("q1 shape: %d groups", len(got))
		}
	}
	q1()
	if avg := testing.AllocsPerRun(5, q1); avg > nrows/4 {
		t.Errorf("the Q1 shape allocates %.0f times over %d rows (budget %d)", avg, 4*nrows, nrows/4)
	}
}

// BenchmarkScanFilterProject is the headline pipeline: the full scan →
// filter → project tree drained at the QD edge.
func BenchmarkScanFilterProject(b *testing.B) {
	const nrows = 20000
	fs, desc, segFiles := writeIntsTable(b, nrows)
	tree := sfpTree(desc, segFiles)
	b.Run("batch", func(b *testing.B) {
		ctx := &Context{Segment: 0, FS: fs}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := Drain(nil, mustBuild(b, ctx, tree), func(types.Row) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// BenchmarkHashAgg measures the hash aggregate's input consumption
// (grouped sum over a storage scan).
func BenchmarkHashAgg(b *testing.B) {
	const nrows = 20000
	fs, desc, segFiles := writeIntsTable(b, nrows)
	colK := &expr.ColRef{Idx: 0, K: types.KindInt64}
	colV := &expr.ColRef{Idx: 1, K: types.KindInt64}
	tree := &plan.HashAgg{
		Input:  &plan.Scan{Table: desc, Proj: []int{0, 1, 2}, SegFiles: segFiles, Schema: desc.Schema},
		Phase:  plan.AggSingle,
		Groups: []expr.Expr{colV},
		Aggs:   []expr.AggSpec{{Kind: expr.AggSum, Arg: colK}, {Kind: expr.AggCountStar}},
		Schema: intsSchema("v", "sum", "count"),
	}
	b.Run("batch", func(b *testing.B) {
		ctx := &Context{Segment: 0, FS: fs}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := Drain(nil, mustBuild(b, ctx, tree), func(types.Row) error { n++; return nil })
			if err != nil {
				b.Fatal(err)
			}
			if n != 97 {
				b.Fatalf("groups = %d", n)
			}
		}
	})
}

func mustBuild(tb testing.TB, ctx *Context, n plan.Node) Operator {
	tb.Helper()
	op, err := Build(ctx, n)
	if err != nil {
		tb.Fatal(err)
	}
	return op
}

var loopbackQuery atomic.Uint64

// BenchmarkMotionLoopback sends rows through a gather motion between two
// in-process UDP nodes and drains them on the receiver.
func BenchmarkMotionLoopback(b *testing.B) {
	const nrows = 1024
	var rows [][]int64
	for i := 0; i < nrows; i++ {
		rows = append(rows, []int64{int64(i), int64(i * 3), int64(i % 11), int64(-i)})
	}
	schema := intsSchema("a", "b", "c", "d")
	b.Run("batch", func(b *testing.B) {
		book := interconnect.NewAddrBook()
		send, err := interconnect.NewUDPNode(0, book, interconnect.UDPConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer send.Close()
		recvNode, err := interconnect.NewUDPNode(interconnect.SegID(plan.QDSegment), book, interconnect.UDPConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer recvNode.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			query := loopbackQuery.Add(1)
			done := make(chan error, 1)
			go func() {
				motion := &plan.Motion{ID: 1, Type: plan.GatherMotion,
					Input: valuesNode(schema, rows...), Receivers: []int{plan.QDSegment}}
				ctx := &Context{Query: query, Segment: 0, Net: send}
				p := &plan.Plan{Slices: []*plan.Slice{{}, {ID: 1, Root: motion, Segments: []int{0}}}}
				done <- RunSlice(ctx, p, 1)
			}()
			recv := &plan.MotionRecv{ID: 1, Senders: []int{0}, Schema: schema}
			ctx := &Context{Query: query, Segment: plan.QDSegment, Net: recvNode}
			n := 0
			if err := Drain(nil, mustBuild(b, ctx, recv), func(types.Row) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
			if n != nrows {
				b.Fatalf("received %d rows", n)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	})
}
