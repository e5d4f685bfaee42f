package executor

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
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

func intsSchema(names ...string) *types.Schema {
	cols := make([]types.Column, len(names))
	for i, n := range names {
		cols[i] = types.Column{Name: n, Kind: types.KindInt64}
	}
	return types.NewSchema(cols...)
}

func valuesNode(schema *types.Schema, rows ...[]int64) *plan.Values {
	v := &plan.Values{Schema: schema}
	for _, r := range rows {
		row := make(types.Row, len(r))
		for i, x := range r {
			row[i] = types.NewInt64(x)
		}
		v.Rows = append(v.Rows, row)
	}
	return v
}

// distinctOf is SELECT DISTINCT over n as the planner builds it on one
// node: a grouping on every column with no aggregates.
func distinctOf(n plan.Node) *plan.HashAgg {
	s := n.OutSchema()
	groups := make([]expr.Expr, s.Len())
	for i, c := range s.Columns {
		groups[i] = &expr.ColRef{Idx: i, K: c.Kind}
	}
	return &plan.HashAgg{Input: n, Phase: plan.AggSingle, Groups: groups, Schema: s}
}

func collect(t *testing.T, ctx *Context, n plan.Node) []types.Row {
	t.Helper()
	op, err := Build(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	var out []types.Row
	if err := Drain(nil, op, func(r types.Row) error {
		out = append(out, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func rowsToInts(rows []types.Row) [][]int64 {
	out := make([][]int64, len(rows))
	for i, r := range rows {
		out[i] = make([]int64, len(r))
		for j, d := range r {
			if d.IsNull() {
				out[i][j] = -999
			} else {
				out[i][j] = d.Int()
			}
		}
	}
	return out
}

func TestProjectSelectLimitDistinct(t *testing.T) {
	ctx := &Context{Segment: 0}
	base := valuesNode(intsSchema("a"), []int64{1}, []int64{2}, []int64{2}, []int64{3}, []int64{4})
	col := &expr.ColRef{Idx: 0, K: types.KindInt64}
	tree := &plan.Limit{
		N: 2,
		Input: &plan.Sort{
			Keys: []plan.OrderKey{{Col: 0}},
			Input: distinctOf(&plan.Project{
				Input: &plan.Select{
					Input: base,
					Pred:  expr.NewBinOp(expr.OpGt, col, expr.NewConst(types.NewInt64(1))),
				},
				Exprs:  []expr.Expr{expr.NewBinOp(expr.OpMul, col, expr.NewConst(types.NewInt64(10)))},
				Schema: intsSchema("a10"),
			}),
		},
	}
	got := rowsToInts(collect(t, ctx, tree))
	want := [][]int64{{20}, {30}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLimitOffset(t *testing.T) {
	ctx := &Context{Segment: 0}
	base := valuesNode(intsSchema("a"), []int64{1}, []int64{2}, []int64{3}, []int64{4})
	tree := &plan.Limit{N: 2, Offset: 1, Input: base}
	got := rowsToInts(collect(t, ctx, tree))
	if !reflect.DeepEqual(got, [][]int64{{2}, {3}}) {
		t.Errorf("got %v", got)
	}
}

func joinNode(kind plan.JoinKind, extra expr.Expr) *plan.HashJoin {
	left := valuesNode(intsSchema("lk", "lv"), []int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{3, 31})
	right := valuesNode(intsSchema("rk", "rv"), []int64{2, 200}, []int64{3, 300}, []int64{5, 500})
	return &plan.HashJoin{
		Kind: kind, Left: left, Right: right,
		LeftKeys: []int{0}, RightKeys: []int{0},
		ExtraPred: extra,
		Schema:    left.Schema.Concat(right.Schema),
	}
}

func TestHashJoinKinds(t *testing.T) {
	ctx := &Context{Segment: 0}
	sortRows := func(r [][]int64) {
		sort.Slice(r, func(i, j int) bool { return fmt.Sprint(r[i]) < fmt.Sprint(r[j]) })
	}
	// Inner.
	got := rowsToInts(collect(t, ctx, joinNode(plan.InnerJoin, nil)))
	sortRows(got)
	want := [][]int64{{2, 20, 2, 200}, {3, 30, 3, 300}, {3, 31, 3, 300}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inner = %v", got)
	}
	// Left outer.
	got = rowsToInts(collect(t, ctx, joinNode(plan.LeftJoin, nil)))
	sortRows(got)
	want = [][]int64{{1, 10, -999, -999}, {2, 20, 2, 200}, {3, 30, 3, 300}, {3, 31, 3, 300}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("left = %v", got)
	}
	// Semi.
	got = rowsToInts(collect(t, ctx, joinNode(plan.SemiJoin, nil)))
	sortRows(got)
	want = [][]int64{{2, 20}, {3, 30}, {3, 31}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("semi = %v", got)
	}
	// Anti.
	got = rowsToInts(collect(t, ctx, joinNode(plan.AntiJoin, nil)))
	sortRows(got)
	want = [][]int64{{1, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("anti = %v", got)
	}
}

func TestHashJoinExtraPredAndNullKeys(t *testing.T) {
	ctx := &Context{Segment: 0}
	// Residual predicate: rv > 250.
	extra := expr.NewBinOp(expr.OpGt, &expr.ColRef{Idx: 3, K: types.KindInt64}, expr.NewConst(types.NewInt64(250)))
	got := rowsToInts(collect(t, ctx, joinNode(plan.InnerJoin, extra)))
	sort.Slice(got, func(i, j int) bool { return fmt.Sprint(got[i]) < fmt.Sprint(got[j]) })
	want := [][]int64{{3, 30, 3, 300}, {3, 31, 3, 300}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("extra pred = %v", got)
	}
	// NULL keys never match.
	left := &plan.Values{Schema: intsSchema("lk"), Rows: []types.Row{{types.Null}, {types.NewInt64(1)}}}
	right := &plan.Values{Schema: intsSchema("rk"), Rows: []types.Row{{types.Null}, {types.NewInt64(1)}}}
	j := &plan.HashJoin{Kind: plan.InnerJoin, Left: left, Right: right,
		LeftKeys: []int{0}, RightKeys: []int{0}, Schema: left.Schema.Concat(right.Schema)}
	rows := collect(t, ctx, j)
	if len(rows) != 1 {
		t.Errorf("null-key join rows = %d, want 1", len(rows))
	}
}

func TestHashJoinCrossKindKeys(t *testing.T) {
	ctx := &Context{Segment: 0}
	left := &plan.Values{Schema: types.NewSchema(types.Column{Name: "k", Kind: types.KindInt32}),
		Rows: []types.Row{{types.NewInt32(7)}}}
	right := &plan.Values{Schema: intsSchema("k"),
		Rows: []types.Row{{types.NewInt64(7)}}}
	j := &plan.HashJoin{Kind: plan.InnerJoin, Left: left, Right: right,
		LeftKeys: []int{0}, RightKeys: []int{0}, Schema: left.Schema.Concat(right.Schema)}
	if rows := collect(t, ctx, j); len(rows) != 1 {
		t.Errorf("int32/int64 key join rows = %d, want 1", len(rows))
	}
}

func TestNestLoopJoin(t *testing.T) {
	ctx := &Context{Segment: 0}
	left := valuesNode(intsSchema("a"), []int64{1}, []int64{5})
	right := valuesNode(intsSchema("b"), []int64{2}, []int64{6})
	// Non-equi: a < b.
	pred := expr.NewBinOp(expr.OpLt, &expr.ColRef{Idx: 0, K: types.KindInt64}, &expr.ColRef{Idx: 1, K: types.KindInt64})
	j := &plan.NestLoopJoin{Kind: plan.InnerJoin, Left: left, Right: right, Pred: pred,
		Schema: left.Schema.Concat(right.Schema)}
	got := rowsToInts(collect(t, ctx, j))
	sort.Slice(got, func(i, j int) bool { return fmt.Sprint(got[i]) < fmt.Sprint(got[j]) })
	want := [][]int64{{1, 2}, {1, 6}, {5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("nestloop = %v", got)
	}
	// Anti: rows with no b > a.
	j.Kind = plan.AntiJoin
	j.Schema = left.Schema
	got = rowsToInts(collect(t, ctx, j))
	if len(got) != 0 {
		t.Errorf("anti = %v", got)
	}
}

func TestHashAggGroupsAndScalar(t *testing.T) {
	ctx := &Context{Segment: 0}
	base := valuesNode(intsSchema("g", "v"), []int64{1, 10}, []int64{2, 20}, []int64{1, 30})
	col0 := &expr.ColRef{Idx: 0, K: types.KindInt64}
	col1 := &expr.ColRef{Idx: 1, K: types.KindInt64}
	agg := &plan.HashAgg{
		Input:  base,
		Phase:  plan.AggSingle,
		Groups: []expr.Expr{col0},
		Aggs: []expr.AggSpec{
			{Kind: expr.AggSum, Arg: col1},
			{Kind: expr.AggCountStar},
			{Kind: expr.AggAvg, Arg: col1},
		},
		Schema: intsSchema("g", "sum", "count", "avg"),
	}
	rows := collect(t, ctx, agg)
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].Int() < rows[j][0].Int() })
	if rows[0][0].Int() != 1 || rows[0][1].Int() != 40 || rows[0][2].Int() != 2 || rows[0][3].Float() != 20 {
		t.Errorf("group 1 = %v", rows[0])
	}
	// Scalar aggregate over empty input: one row, count 0, sum NULL.
	empty := &plan.Values{Schema: intsSchema("v")}
	scalar := &plan.HashAgg{
		Input: empty, Phase: plan.AggSingle,
		Aggs:   []expr.AggSpec{{Kind: expr.AggCountStar}, {Kind: expr.AggSum, Arg: col0}},
		Schema: intsSchema("count", "sum"),
	}
	rows = collect(t, ctx, scalar)
	if len(rows) != 1 || rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty scalar agg = %v", rows)
	}
	// A scalar partial phase over empty input still emits its one row
	// (count 0), so the final SUM over partial counts is 0, not NULL.
	partial := &plan.HashAgg{
		Input: empty, Phase: plan.AggPartial,
		Aggs:   []expr.AggSpec{{Kind: expr.AggCountStar}},
		Schema: intsSchema("count"),
	}
	if rows := collect(t, ctx, partial); len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("empty partial agg = %v", rows)
	}
}

// TestSortWithSpill: a sort over work_mem spills its runs as workfiles
// of the query's store, removes each in Close, and the store's teardown
// leaves nothing on disk.
func TestSortWithSpill(t *testing.T) {
	dir := t.TempDir()
	st := resource.NewStore(dir, "sort")
	ctx := &Context{Segment: 0, Work: st, Plan: &plan.Plan{WorkMem: runBudget(100)}}
	var rows [][]int64
	for i := 0; i < 1000; i++ {
		rows = append(rows, []int64{int64((i * 7919) % 1000), int64(i)})
	}
	base := valuesNode(intsSchema("k", "v"), rows...)
	s := &plan.Sort{Input: base, Keys: []plan.OrderKey{{Col: 0}}}
	files, _ := resource.SpillStats()
	got := rowsToInts(collect(t, ctx, s))
	if len(got) != 1000 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i][0] < got[i-1][0] {
			t.Fatalf("not sorted at %d: %v < %v", i, got[i], got[i-1])
		}
	}
	if now, _ := resource.SpillStats(); now-files < 1000/100 {
		t.Errorf("sort wrote %d workfiles, want a run per 100 rows", now-files)
	}
	if st.Live() != 0 {
		t.Errorf("after Close: %d workfiles live", st.Live())
	}
	st.Cleanup()
	if left, err := resource.Leftovers(dir); err != nil || len(left) > 0 {
		t.Errorf("after teardown: leftovers %v, %v", left, err)
	}
	// Descending.
	s2 := &plan.Sort{Input: valuesNode(intsSchema("k"), []int64{1}, []int64{3}, []int64{2}),
		Keys: []plan.OrderKey{{Col: 0, Desc: true}}}
	got = rowsToInts(collect(t, ctx, s2))
	if !reflect.DeepEqual(got, [][]int64{{3}, {2}, {1}}) {
		t.Errorf("desc sort = %v", got)
	}
}

func TestScanFromStorage(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := intsSchema("k", "v")
	desc := &catalog.TableDesc{
		OID: 1, Name: "t", Schema: schema,
		Storage: catalog.StorageSpec{Orientation: catalog.OrientColumn, Codec: "quicklz"},
	}
	// Write two segments' files.
	var segFiles []catalog.SegFile
	for seg := 0; seg < 2; seg++ {
		sf := catalog.SegFile{TableOID: 1, SegmentID: seg, SegNo: 1, Path: fmt.Sprintf("/d/1/%d/1", seg)}
		w, err := storage.NewWriter(fs, desc.Storage, schema, sf, hdfs.CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			w.Append(types.Row{types.NewInt64(int64(seg*100 + i)), types.NewInt64(int64(i))})
		}
		w.Close()
		sf.LogicalLen, sf.ColLens = w.Lens()
		sf.Tuples = w.Tuples()
		segFiles = append(segFiles, sf)
	}
	scan := &plan.Scan{
		Table: desc, Proj: []int{0}, SegFiles: segFiles,
		Filter: expr.NewBinOp(expr.OpGe, &expr.ColRef{Idx: 0, K: types.KindInt64}, expr.NewConst(types.NewInt64(50))),
		Schema: intsSchema("k"),
	}
	// Segment 0 sees only its own file: keys 50..99.
	ctx := &Context{Segment: 0, FS: fs}
	rows := collect(t, ctx, scan)
	if len(rows) != 50 {
		t.Errorf("segment 0 rows = %d, want 50", len(rows))
	}
	// Segment 1: keys 100..199, all >= 50.
	ctx = &Context{Segment: 1, FS: fs}
	rows = collect(t, ctx, scan)
	if len(rows) != 100 {
		t.Errorf("segment 1 rows = %d, want 100", len(rows))
	}
}

// buildNet builds UDP interconnect nodes for QD + n segments.
func buildNet(t *testing.T, n int) map[int]interconnect.Node {
	t.Helper()
	book := interconnect.NewAddrBook()
	nodes := map[int]interconnect.Node{}
	ids := []int{plan.QDSegment}
	for i := 0; i < n; i++ {
		ids = append(ids, i)
	}
	for _, id := range ids {
		node, err := interconnect.NewUDPNode(interconnect.SegID(id), book, interconnect.UDPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// motionPlan is the slice table of one motion: slice 1, rooted at root,
// runs on senders and sends to the gang of slice 0, receivers.
func motionPlan(root plan.Node, senders, receivers []int) *plan.Plan {
	return &plan.Plan{Slices: []*plan.Slice{{Segments: receivers}, {ID: 1, Root: root, Segments: senders}}}
}

func TestGatherMotionAcrossNodes(t *testing.T) {
	nodes := buildNet(t, 2)
	const query = 77
	// Each segment sends its values through a gather motion to the QD.
	var wg sync.WaitGroup
	for seg := 0; seg < 2; seg++ {
		wg.Add(1)
		go func(seg int) {
			defer wg.Done()
			base := valuesNode(intsSchema("v"), []int64{int64(seg*10 + 1)}, []int64{int64(seg*10 + 2)})
			motion := &plan.Motion{ID: 1, Type: plan.GatherMotion, Input: base}
			p := motionPlan(motion, []int{0, 1}, []int{plan.QDSegment})
			ctx := &Context{Query: query, Segment: seg, Net: nodes[seg], Plan: p}
			if err := RunSlice(ctx, 1); err != nil {
				t.Error(err)
			}
		}(seg)
	}
	recv := &plan.MotionRecv{ID: 1, Schema: intsSchema("v")}
	ctx := &Context{Query: query, Segment: plan.QDSegment, Net: nodes[plan.QDSegment], Plan: motionPlan(nil, []int{0, 1}, []int{plan.QDSegment})}
	rows := collect(t, ctx, recv)
	wg.Wait()
	var got []int64
	for _, r := range rows {
		got = append(got, r[0].Int())
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []int64{1, 2, 11, 12}) {
		t.Errorf("gathered = %v", got)
	}
}

func TestRedistributeMotionPartitionsByHash(t *testing.T) {
	nodes := buildNet(t, 2)
	const query = 78
	// QD-side produces rows 0..99 and redistributes them to 2 segments
	// by hash of the key; the segments each receive a disjoint subset.
	var wg sync.WaitGroup
	results := make([][]int64, 2)
	for seg := 0; seg < 2; seg++ {
		wg.Add(1)
		go func(seg int) {
			defer wg.Done()
			recv := &plan.MotionRecv{ID: 1, Schema: intsSchema("v")}
			ctx := &Context{Query: query, Segment: seg, Net: nodes[seg], Plan: motionPlan(nil, []int{plan.QDSegment}, []int{0, 1})}
			op, err := Build(ctx, recv)
			if err != nil {
				t.Error(err)
				return
			}
			Drain(nil, op, func(r types.Row) error {
				results[seg] = append(results[seg], r[0].Int())
				return nil
			})
		}(seg)
	}
	var rows [][]int64
	for i := 0; i < 100; i++ {
		rows = append(rows, []int64{int64(i)})
	}
	motion := &plan.Motion{ID: 1, Type: plan.RedistributeMotion, HashCols: []int{0},
		Input: valuesNode(intsSchema("v"), rows...)}
	ctx := &Context{Query: query, Segment: plan.QDSegment, Net: nodes[plan.QDSegment], Plan: motionPlan(motion, []int{plan.QDSegment}, []int{0, 1})}
	if err := RunSlice(ctx, 1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(results[0])+len(results[1]) != 100 {
		t.Fatalf("total = %d", len(results[0])+len(results[1]))
	}
	if len(results[0]) == 0 || len(results[1]) == 0 {
		t.Errorf("skewed redistribution: %d/%d", len(results[0]), len(results[1]))
	}
	// Same key always lands on the same segment: values are disjoint.
	seen := map[int64]int{}
	for seg, vals := range results {
		for _, v := range vals {
			if prev, dup := seen[v]; dup {
				t.Fatalf("value %d on both segments %d and %d", v, prev, seg)
			}
			seen[v] = seg
		}
	}
}

func TestBroadcastMotionReplicates(t *testing.T) {
	nodes := buildNet(t, 2)
	const query = 79
	var wg sync.WaitGroup
	results := make([][]int64, 2)
	for seg := 0; seg < 2; seg++ {
		wg.Add(1)
		go func(seg int) {
			defer wg.Done()
			recv := &plan.MotionRecv{ID: 1, Schema: intsSchema("v")}
			ctx := &Context{Query: query, Segment: seg, Net: nodes[seg], Plan: motionPlan(nil, []int{plan.QDSegment}, []int{0, 1})}
			op, _ := Build(ctx, recv)
			Drain(nil, op, func(r types.Row) error {
				results[seg] = append(results[seg], r[0].Int())
				return nil
			})
		}(seg)
	}
	motion := &plan.Motion{ID: 1, Type: plan.BroadcastMotion,
		Input: valuesNode(intsSchema("v"), []int64{1}, []int64{2})}
	ctx := &Context{Query: query, Segment: plan.QDSegment, Net: nodes[plan.QDSegment], Plan: motionPlan(motion, []int{plan.QDSegment}, []int{0, 1})}
	if err := RunSlice(ctx, 1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for seg, vals := range results {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if !reflect.DeepEqual(vals, []int64{1, 2}) {
			t.Errorf("segment %d got %v", seg, vals)
		}
	}
}

func TestLimitStopsMotionEarly(t *testing.T) {
	nodes := buildNet(t, 1)
	const query = 80
	// The segment produces many rows; the QD takes 3 and closes, which
	// must stop the sender via the interconnect STOP message.
	segDone := make(chan error, 1)
	go func() {
		var rows [][]int64
		for i := 0; i < 100000; i++ {
			rows = append(rows, []int64{int64(i)})
		}
		motion := &plan.Motion{ID: 1, Type: plan.GatherMotion,
			Input: valuesNode(intsSchema("v"), rows...)}
		ctx := &Context{Query: query, Segment: 0, Net: nodes[0], Plan: motionPlan(motion, []int{0}, []int{plan.QDSegment})}
		segDone <- RunSlice(ctx, 1)
	}()
	recv := &plan.MotionRecv{ID: 1, Schema: intsSchema("v")}
	lim := &plan.Limit{N: 3, Input: recv}
	ctx := &Context{Query: query, Segment: plan.QDSegment, Net: nodes[plan.QDSegment], Plan: motionPlan(nil, []int{0}, []int{plan.QDSegment})}
	rows := collect(t, ctx, lim)
	if len(rows) != 3 {
		t.Fatalf("limit rows = %d", len(rows))
	}
	if err := <-segDone; err != nil {
		t.Fatalf("segment slice: %v", err)
	}
}

func TestInsertWritesLaneAndPiggybacks(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := intsSchema("k", "v")
	desc := &catalog.TableDesc{
		OID: 5, Name: "t", Schema: schema,
		Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
	}
	sf := catalog.SegFile{TableOID: 5, SegmentID: 0, SegNo: 1, Path: "/hawq/5/0/1"}
	ins := &plan.Insert{
		Targets: []plan.InsertTarget{{Table: desc, Files: map[int]catalog.SegFile{0: sf}}},
		SegNo:   1,
		Input:   valuesNode(schema, []int64{1, 10}, []int64{2, 20}),
		Schema:  intsSchema("count"),
	}
	var update *SegFileUpdate
	ctx := &Context{Segment: 0, FS: fs, OnSegFileUpdate: func(u SegFileUpdate) { update = &u }}
	rows := collect(t, ctx, ins)
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Fatalf("insert result = %v", rows)
	}
	if update == nil || update.File.Tuples != 2 || update.File.LogicalLen == 0 {
		t.Fatalf("piggyback = %+v", update)
	}
	// Scanning with the updated segfile sees the rows.
	scan := &plan.Scan{Table: desc, Proj: []int{0, 1}, SegFiles: []catalog.SegFile{update.File}, Schema: schema}
	got := rowsToInts(collect(t, ctx, scan))
	if !reflect.DeepEqual(got, [][]int64{{1, 10}, {2, 20}}) {
		t.Errorf("scan after insert = %v", got)
	}
}

func TestInsertNotNullViolation(t *testing.T) {
	fs, _ := hdfs.New(hdfs.Config{DataNodes: 1})
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt64, NotNull: true})
	desc := &catalog.TableDesc{OID: 6, Name: "t", Schema: schema,
		Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"}}
	ins := &plan.Insert{
		Targets: []plan.InsertTarget{{Table: desc, Files: map[int]catalog.SegFile{0: {TableOID: 6, SegmentID: 0, SegNo: 1, Path: "/t/0/1"}}}},
		SegNo:   1,
		Input:   &plan.Values{Schema: schema, Rows: []types.Row{{types.Null}}},
		Schema:  intsSchema("count"),
	}
	ctx := &Context{Segment: 0, FS: fs}
	op, err := Build(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	err = Drain(nil, op, func(types.Row) error { return nil })
	if err == nil {
		t.Fatal("not-null violation accepted")
	}
}

func TestAntiJoinDisqualifiedRowDoesNotResurface(t *testing.T) {
	// Regression: a probe row disqualified by a match must not be
	// emitted later when a subsequent no-match row returns early.
	ctx := &Context{Segment: 0}
	left := valuesNode(intsSchema("k"), []int64{2}, []int64{1}, []int64{3})
	right := valuesNode(intsSchema("k"), []int64{2}, []int64{3})
	j := &plan.HashJoin{Kind: plan.AntiJoin, Left: left, Right: right,
		LeftKeys: []int{0}, RightKeys: []int{0}, Schema: left.Schema}
	got := rowsToInts(collect(t, ctx, j))
	if !reflect.DeepEqual(got, [][]int64{{1}}) {
		t.Fatalf("anti = %v, want [[1]]", got)
	}
	// Same for semi: the returned row must not repeat.
	j2 := &plan.HashJoin{Kind: plan.SemiJoin, Left: left, Right: right,
		LeftKeys: []int{0}, RightKeys: []int{0}, Schema: left.Schema}
	got = rowsToInts(collect(t, ctx, j2))
	if !reflect.DeepEqual(got, [][]int64{{2}, {3}}) {
		t.Fatalf("semi = %v", got)
	}
}
