package executor

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/types"
)

// spillCtx returns a Context whose operators will spill to a workfile
// store at the given work_mem, plus the store for asserting cleanup.
func spillCtx(t *testing.T, workMem int64) (*Context, *resource.Store) {
	t.Helper()
	st := resource.NewStore(t.TempDir(), "test")
	t.Cleanup(st.Cleanup)
	return &Context{Segment: 0, Work: st, Plan: &plan.Plan{WorkMem: workMem}}, st
}

// runBudget is the work_mem at which a sort of two-integer rows spills a
// run of exactly n rows.
func runBudget(n int) int64 {
	return int64(n)*rowMem(make(types.Row, 2)) - 1
}

func sortedInts(rows []types.Row) [][]int64 {
	out := rowsToInts(rows)
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// bigJoinInputs builds join inputs large enough to overflow a small
// work_mem: duplicate keys, misses on both sides, and NULL keys.
func bigJoinInputs() (left, right *plan.Values) {
	var lrows, rrows [][]int64
	for i := 0; i < 400; i++ {
		lrows = append(lrows, []int64{int64(i % 150), int64(i)})
	}
	for i := 0; i < 300; i++ {
		rrows = append(rrows, []int64{int64(i % 120), int64(1000 + i)})
	}
	left = valuesNode(intsSchema("lk", "lv"), lrows...)
	right = valuesNode(intsSchema("rk", "rv"), rrows...)
	// NULL keys: never match, but Left/Anti must still emit them.
	left.Rows = append(left.Rows, types.Row{types.Null, types.NewInt64(-1)})
	right.Rows = append(right.Rows, types.Row{types.Null, types.NewInt64(-2)})
	return left, right
}

func TestHashJoinSpillParity(t *testing.T) {
	for _, kind := range []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.SemiJoin, plan.AntiJoin} {
		for _, workMem := range []int64{8 << 10, 512} { // one spill level / recursive
			left, right := bigJoinInputs()
			j := &plan.HashJoin{
				Kind: kind, Left: left, Right: right,
				LeftKeys: []int{0}, RightKeys: []int{0},
				Schema: left.Schema.Concat(right.Schema),
			}
			if kind == plan.SemiJoin || kind == plan.AntiJoin {
				j.Schema = left.Schema
			}
			want := sortedInts(collect(t, &Context{Segment: 0}, j))

			files0, _ := resource.SpillStats()
			ctx, st := spillCtx(t, workMem)
			got := sortedInts(collect(t, ctx, j))
			files1, _ := resource.SpillStats()
			if files1 == files0 {
				t.Fatalf("kind %v work_mem %d: join did not spill", kind, workMem)
			}
			if st.Live() != 0 {
				t.Fatalf("kind %v work_mem %d: %d workfiles leaked", kind, workMem, st.Live())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kind %v work_mem %d: spilled join diverges\ngot  %d rows\nwant %d rows", kind, workMem, len(got), len(want))
			}
		}
	}
	if resource.MaxSpillLevel() == 0 {
		t.Error("work_mem=512 should have forced recursive spilling")
	}
}

func TestHashAggSpillParity(t *testing.T) {
	var rows [][]int64
	for i := 0; i < 2000; i++ {
		rows = append(rows, []int64{int64(i % 700), int64(i)})
	}
	base := valuesNode(intsSchema("g", "v"), rows...)
	col0 := &expr.ColRef{Idx: 0, K: types.KindInt64}
	col1 := &expr.ColRef{Idx: 1, K: types.KindInt64}
	agg := &plan.HashAgg{
		Input: base, Phase: plan.AggSingle,
		Groups: []expr.Expr{col0},
		Aggs: []expr.AggSpec{
			{Kind: expr.AggSum, Arg: col1},
			{Kind: expr.AggCountStar},
			{Kind: expr.AggMin, Arg: col1},
		},
		Schema: intsSchema("g", "sum", "count", "min"),
	}
	want := sortedInts(collect(t, &Context{Segment: 0}, agg))
	for _, workMem := range []int64{16 << 10, 1 << 10} {
		files0, _ := resource.SpillStats()
		ctx, st := spillCtx(t, workMem)
		got := sortedInts(collect(t, ctx, agg))
		files1, _ := resource.SpillStats()
		if files1 == files0 {
			t.Fatalf("work_mem %d: agg did not spill", workMem)
		}
		if st.Live() != 0 {
			t.Fatalf("work_mem %d: %d workfiles leaked", workMem, st.Live())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("work_mem %d: spilled agg diverges: got %d groups, want %d", workMem, len(got), len(want))
		}
	}
}

func TestSortSpillsToWorkfileStore(t *testing.T) {
	var rows [][]int64
	for i := 0; i < 3000; i++ {
		rows = append(rows, []int64{int64((i * 7919) % 3000), int64(i)})
	}
	base := valuesNode(intsSchema("k", "v"), rows...)
	s := &plan.Sort{Input: base, Keys: []plan.OrderKey{{Col: 0}}}
	files0, _ := resource.SpillStats()
	ctx, st := spillCtx(t, 4<<10)
	got := rowsToInts(collect(t, ctx, s))
	files1, _ := resource.SpillStats()
	if files1 == files0 {
		t.Fatal("sort did not spill to the workfile store")
	}
	if st.Live() != 0 {
		t.Fatalf("%d workfiles leaked", st.Live())
	}
	if len(got) != 3000 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i][0] < got[i-1][0] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

// BenchmarkSpillJoin compares an in-memory hash join against the same
// join forced through partitioned workfiles, reporting the bytes
// spilled per operation alongside the usual time and allocation
// numbers — the cost of degrading under memory pressure.
func BenchmarkSpillJoin(b *testing.B) {
	var lrows, rrows [][]int64
	for i := 0; i < 4000; i++ {
		lrows = append(lrows, []int64{int64(i % 1500), int64(i)})
	}
	for i := 0; i < 3000; i++ {
		rrows = append(rrows, []int64{int64(i % 1200), int64(10000 + i)})
	}
	left := valuesNode(intsSchema("lk", "lv"), lrows...)
	right := valuesNode(intsSchema("rk", "rv"), rrows...)
	j := &plan.HashJoin{
		Kind: plan.InnerJoin, Left: left, Right: right,
		LeftKeys: []int{0}, RightKeys: []int{0},
		Schema: left.Schema.Concat(right.Schema),
	}
	run := func(b *testing.B, ctx *Context) {
		b.ReportAllocs()
		_, bytes0 := resource.SpillStats()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := Drain(nil, mustBuild(b, ctx, j), func(types.Row) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("no rows")
			}
		}
		_, bytes1 := resource.SpillStats()
		b.ReportMetric(float64(bytes1-bytes0)/float64(b.N), "spilled-B/op")
	}
	b.Run("mem", func(b *testing.B) {
		run(b, &Context{Segment: 0})
	})
	b.Run("spill", func(b *testing.B) {
		st := resource.NewStore(b.TempDir(), "bench")
		defer st.Cleanup()
		run(b, &Context{Segment: 0, Work: st, Plan: &plan.Plan{WorkMem: 32 << 10}})
	})
}

func TestSpillOOMWithoutStore(t *testing.T) {
	// A hard grant with no workfile store cannot degrade: the build
	// must fail with a clean out-of-memory error, not crash or wedge.
	left, right := bigJoinInputs()
	j := &plan.HashJoin{
		Kind: plan.InnerJoin, Left: left, Right: right,
		LeftKeys: []int{0}, RightKeys: []int{0},
		Schema: left.Schema.Concat(right.Schema),
	}
	ctx := &Context{Segment: 0, Mem: resource.NewAccount(2 << 10)}
	op, err := Build(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	err = Drain(nil, op, func(types.Row) error { return nil })
	if !errors.Is(err, resource.ErrOutOfMemory) {
		t.Fatalf("got %v, want ErrOutOfMemory", err)
	}
	if got := ctx.Mem.Used(); got != 0 {
		t.Fatalf("reservation leaked after OOM: %d bytes", got)
	}
}

func TestSpillObservesCancel(t *testing.T) {
	// Cancel the query mid-probe of a spilled join: the operator must
	// surface the cause and leave no workfiles behind after Close. The
	// probe side is long enough that the first output batch leaves most
	// partitions unjoined.
	_, right := bigJoinInputs()
	var lrows [][]int64
	for i := 0; i < 8000; i++ {
		lrows = append(lrows, []int64{int64(i % 150), int64(i)})
	}
	left := valuesNode(intsSchema("lk", "lv"), lrows...)
	j := &plan.HashJoin{
		Kind: plan.InnerJoin, Left: left, Right: right,
		LeftKeys: []int{0}, RightKeys: []int{0},
		Schema: left.Schema.Concat(right.Schema),
	}
	cause := errors.New("canceled by test")
	cctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ctx, st := spillCtx(t, 512)
	ctx.Ctx = cctx
	op, err := Build(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	b := types.GetBatch(0)
	defer types.PutBatch(b)
	if ok, err := op.NextBatch(b); err != nil || !ok {
		t.Fatalf("first probe batch: ok=%v err=%v", ok, err)
	}
	cancel(cause)
	var lastErr error
	for i := 0; i < 1_000_000; i++ {
		ok, err := op.NextBatch(b)
		if err != nil {
			lastErr = err
			break
		}
		if !ok {
			break
		}
	}
	if cerr := op.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if st.Live() != 0 {
		t.Fatalf("%d workfiles survive cancel + Close", st.Live())
	}
	if !errors.Is(lastErr, cause) {
		t.Fatalf("got %v after the cancel, want its cause", lastErr)
	}
}

// TestSpilledSortMergeObservesCancel: the merge of a spilled sort reads
// its runs back through row cursors, and a cursor checks the query
// context before every refill — so a cancel between two batches of the
// merge comes out as its cause once a run's batch is used up, not as the
// rest of the sorted rows, and Close leaves no workfile.
func TestSpilledSortMergeObservesCancel(t *testing.T) {
	var rows [][]int64
	for i := 0; i < 9000; i++ {
		rows = append(rows, []int64{int64((i * 7919) % 9000), int64(i)})
	}
	cause := errors.New("canceled by test")
	cctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ctx, st := spillCtx(t, runBudget(4000)) // two runs of 4 000 rows and a tail in memory
	ctx.Ctx = cctx
	op := mustBuild(t, ctx, &plan.Sort{Input: valuesNode(intsSchema("k", "v"), rows...), Keys: []plan.OrderKey{{Col: 0}}})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if st.Live() != 2 {
		t.Fatalf("%d runs in the workfile store, want 2", st.Live())
	}
	b := types.GetBatch(0)
	defer types.PutBatch(b)
	if ok, err := op.NextBatch(b); err != nil || !ok {
		t.Fatalf("first merged batch: ok=%v err=%v", ok, err)
	}
	cancel(cause)
	var err error
	for ok := true; ok && err == nil; {
		ok, err = op.NextBatch(b)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("the merge ended with %v after the cancel, want its cause", err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Live() != 0 {
		t.Fatalf("%d workfiles survive cancel + Close", st.Live())
	}
}
