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
	// must resume mid-match-list on the next call. rv runs 0..2499. The
	// probe side is a Values node, or the scan of fatScan below.
	fatValues := valuesNode(intsSchema("lk", "lv"), []int64{7, 1}, []int64{8, 2}, []int64{7, 3}, []int64{9, 4})
	fatValues.Rows = append(fatValues.Rows, types.Row{types.Null, types.NewInt64(5)})
	fat := func(kind plan.JoinKind, extra expr.Expr, left plan.Node) *plan.HashJoin {
		build := [][]int64{{9, -1}}
		for i := 0; i < 2500; i++ {
			build = append(build, []int64{7, int64(i)})
		}
		right := valuesNode(intsSchema("rk", "rv"), build...)
		return &plan.HashJoin{Kind: kind, Left: left, Right: right, LeftKeys: []int{0}, RightKeys: []int{0},
			ExtraPred: extra, Schema: left.OutSchema().Concat(right.Schema)}
	}
	// The same probe rows in a column table, spread over 3 000 rows that
	// join nothing: three blocks, the first with a key column of runs,
	// NULL keys, and a scan filter that leaves a selection.
	var fatRows []types.Row
	for i := 0; i < 3000; i++ {
		key := 1000 + i%40
		if i < 1500 {
			key = 1000 + i/25
		}
		row := types.Row{types.NewInt64(int64(key)), types.NewInt64(int64(i))}
		switch i % 600 {
		case 0, 2:
			row[0] = types.NewInt64(7)
		case 1:
			row[0] = types.NewInt64(8)
		case 3:
			row[0] = types.NewInt64(9)
		case 4, 5:
			row[0] = types.Null
		}
		fatRows = append(fatRows, row)
	}
	fatDesc, fatFiles := writeCOTable(t, fs, 3, "fat", intsSchema("lk", "lv"), fatRows, 1000)
	tables[fatDesc.Name] = fatRows
	fatScan := &plan.Scan{Table: fatDesc, Proj: []int{0, 1}, SegFiles: fatFiles, Schema: fatDesc.Schema,
		Filter: expr.NewBinOp(expr.OpNe, &expr.ColRef{Idx: 1, K: types.KindInt64}, expr.NewConst(types.NewInt64(1202)))}
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
		// All but one value in 97 match: the probe reads its blocks out
		// whole, where "join" reads out a row at a time.
		"join-most-match": {&plan.HashJoin{
			Kind:      plan.InnerJoin,
			Left:      scan([]int{0, 1}, "k", "v"),
			Right:     valuesNode(intsSchema("rk"), seqRows(96, func(i int) int64 { return 0 })...),
			LeftKeys:  []int{1},
			RightKeys: []int{0},
			Schema:    intsSchema("k", "v", "rk", "rz"),
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
	kinds := []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.SemiJoin, plan.AntiJoin}
	for _, kind := range kinds {
		for name, extra := range extras {
			trees[fmt.Sprintf("fat-join-%d%s", kind, name)] = tree{fat(kind, extra, fatValues), true, plain}
		}
	}
	// spill is the context of an operator whose table takes need bytes
	// under a work_mem: it must spill exactly when the one exceeds the other
	// and leave no workfile behind.
	spill := func(need, workMem int64) func(*testing.T) *Context {
		return func(t *testing.T) *Context {
			ctx, st := spillCtx(t, workMem)
			ctx.FS = fs
			files0, _ := resource.SpillStats()
			t.Cleanup(func() {
				if files1, _ := resource.SpillStats(); (files1 > files0) != (need > workMem) {
					t.Errorf("a table of %d bytes under a work_mem of %d created %d workfiles", need, workMem, files1-files0)
				}
				if st.Live() != 0 {
					t.Errorf("%d workfiles leaked", st.Live())
				}
			})
			return ctx
		}
	}
	// addJoin runs a join in memory, where the output order is defined
	// (probe order, then build order), and under two work_mem budgets that
	// send it through the grace partitions, one level deep and recursively.
	addJoin := func(name string, j *plan.HashJoin, oneLevel, recursive int64) {
		var buildMem int64
		for _, r := range j.Right.(*plan.Values).Rows {
			buildMem += rowMem(r)
		}
		trees[name+"/mem"] = tree{j, true, plain}
		trees[name+"/spill-1"] = tree{j, false, spill(buildMem, oneLevel)}
		trees[name+"/spill-n"] = tree{j, false, spill(buildMem, recursive)}
	}
	// The budgets of TestHashJoinSpillParity.
	const oneLevel, recursive = 8 << 10, 512
	// Build sides that end just before, on and just after a seam of the
	// row store's chunks: the first one, and the first between two chunks
	// of full size. Build keys come in pairs (2i, 2i): every chain has two
	// rows, met in build order. The probe side asks for the first and last
	// rows, the rows around every seam, keys the build side lacks, NULL.
	seam := rowStoreBase*(1<<rowStoreDoublings-1) + chunkRows(rowStoreDoublings)
	if c, off := locate(seam); off != 0 || c != rowStoreDoublings+1 {
		t.Fatalf("row %d is at %d in chunk %d, not at a seam", seam, off, c)
	}
	sizes := []int{0, 1, rowStoreBase - 1, rowStoreBase, rowStoreBase + 1, seam - 1, seam, seam + 1, 100000}
	for _, n := range sizes {
		build := valuesNode(intsSchema("rk", "rv"), seqRows(n, func(i int) int64 { return int64(i) })...)
		for _, r := range build.Rows {
			r[0], r[1] = types.NewInt64(r[1].I-r[1].I%2), r[0]
		}
		probe := valuesNode(intsSchema("lk", "lv"))
		for i, k := range append([]int{-2, n - 2, n - 1, n, n + 1}, sizes...) {
			for d := -2; d <= 2; d++ {
				probe.Rows = append(probe.Rows, types.Row{types.NewInt64(int64(k + d)), types.NewInt64(int64(i))})
			}
		}
		probe.Rows = append(probe.Rows, types.Row{types.Null, types.NewInt64(-1)})
		j := &plan.HashJoin{Kind: plan.LeftJoin, Left: probe, Right: build, LeftKeys: []int{0}, RightKeys: []int{0},
			Schema: probe.Schema.Concat(build.Schema)}
		// Budgets in proportion: an eighth of the build fits the first, not
		// the second.
		bytes := int64(n) * rowMem(types.Row{types.Null, types.Null})
		addJoin(fmt.Sprintf("join-build-%d", n), j, max(bytes/4, recursive), max(bytes/40, recursive))
	}
	// A build side of no columns (a cross join: there is no key to differ
	// in), for the hash join and for the nested loop.
	noCols := &plan.Values{Schema: types.NewSchema()}
	for i := 0; i < 40; i++ {
		noCols.Rows = append(noCols.Rows, types.Row{})
	}
	few := valuesNode(intsSchema("a", "b"), seqRows(30, func(i int) int64 { return int64(i % 4) })...)
	addJoin("join-zero-column-build", &plan.HashJoin{Kind: plan.InnerJoin, Left: few, Right: noCols, Schema: few.Schema}, oneLevel, recursive)
	trees["nestloop-zero-column-inner"] = tree{&plan.NestLoopJoin{Kind: plan.InnerJoin, Left: few, Right: noCols, Schema: few.Schema}, true, plain}
	// Two key columns, one a string: rows that agree in one and not the
	// other do not join.
	strRows := func(n int, tag int64) *plan.Values {
		v := &plan.Values{Schema: types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt64}, types.Column{Name: "s", Kind: types.KindString}, types.Column{Name: "v", Kind: types.KindInt64})}
		for i := 0; i < n; i++ {
			v.Rows = append(v.Rows, types.Row{types.NewInt64(int64(i % 7)), types.NewString(fmt.Sprintf("name-%d", i%5)), types.NewInt64(tag + int64(i))})
		}
		return v
	}
	ls, rs := strRows(90, 0), strRows(300, 1000)
	addJoin("join-two-column-string-key", &plan.HashJoin{Kind: plan.InnerJoin, Left: ls, Right: rs,
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1}, Schema: ls.Schema.Concat(rs.Schema)}, 2*oneLevel, recursive)
	// One key with 2 500 build rows: no partitioning spreads it.
	addJoin("fat-join-spilled", fat(plan.InnerJoin, nil, fatValues), 16<<10, recursive)
	// The fat joins again, probed from the scan's vectors.
	for _, kind := range kinds {
		for name, extra := range extras {
			addJoin(fmt.Sprintf("fat-join-scan-probed-%d%s", kind, name), fat(kind, extra, fatScan), 16<<10, recursive)
		}
	}
	// NULL keys on both sides under every join kind.
	for _, kind := range kinds {
		left, right := bigJoinInputs()
		left.Rows = append(left.Rows, types.Row{types.Null, types.NewInt64(-3)})
		addJoin(fmt.Sprintf("join-null-keys-%d", kind), &plan.HashJoin{Kind: kind, Left: left, Right: right,
			LeftKeys: []int{0}, RightKeys: []int{0}, Schema: left.Schema.Concat(right.Schema)}, oneLevel, recursive)
	}
	// Trees that differ in their context alone share a reference result.
	refs := map[plan.Node][]types.Row{}
	// addAgg runs an aggregate in memory and under a work_mem of a quarter
	// and of a fortieth of what its groups take: the table holds that share
	// of them and the others come back an eighth at a time, which fit the
	// first budget and not the second.
	addAgg := func(name string, groups []expr.Expr, aggs []expr.AggSpec, in plan.Node) {
		agg := &plan.HashAgg{Input: in, Phase: plan.AggSingle, Groups: groups, Aggs: aggs, Schema: intsSchema(make([]string, len(groups)+len(aggs))...)}
		var groupMem int64
		refs[agg] = refRows(t, agg, tables)
		for _, g := range refs[agg] {
			groupMem += aggGroupMem(g[:len(groups)], len(aggs))
		}
		trees[name+"/mem"] = tree{agg, false, plain}
		trees[name+"/spill-1"] = tree{agg, false, spill(groupMem, max(groupMem/4, recursive))}
		trees[name+"/spill-n"] = tree{agg, false, spill(groupMem, max(groupMem/40, recursive))}
	}
	sumCount := []expr.AggSpec{{Kind: expr.AggSum, Arg: colK}, {Kind: expr.AggCountStar}}
	// Groups, and DISTINCT rows, that end just before, on and just after a
	// seam of the key table: the row store's first chunk, the directory's
	// first doubling and a late one. Every key comes back once the last is
	// in, half of them twice.
	for _, n := range []int{0, 1, rowStoreBase - 1, rowStoreBase, rowStoreBase + 1, 4095, 4096, 4097, 100000} {
		in := valuesNode(intsSchema("k", "v"), seqRows(n+n/2, func(i int) int64 { return int64(i % n * 7919) })...)
		addAgg(fmt.Sprintf("agg-groups-%d", n), []expr.Expr{colV}, sumCount, in)
		trees[fmt.Sprintf("distinct-rows-%d", n)] = tree{&plan.Distinct{Input: &plan.Project{Input: in, Exprs: []expr.Expr{colV}, Schema: intsSchema("v")}}, true, plain}
	}
	// Four groups of 2 500 rows.
	addAgg("agg-fat-groups", []expr.Expr{colV}, sumCount, valuesNode(intsSchema("k", "v"), seqRows(10000, func(i int) int64 { return int64(i % 4) })...))
	// Two key columns, one a string: 35 groups that agree in one and not
	// the other; every value of v met twice in three of them.
	twoCols := []expr.Expr{colK, &expr.ColRef{Idx: 1, K: types.KindString}}
	addAgg("agg-two-column-string-key", twoCols, []expr.AggSpec{{Kind: expr.AggCountStar}}, strRows(300, 0))
	distincts := []expr.AggSpec{
		{Kind: expr.AggCount, Arg: &expr.ColRef{Idx: 2, K: types.KindInt64}, Distinct: true},
		{Kind: expr.AggSum, Arg: &expr.ColRef{Idx: 2, K: types.KindInt64}, Distinct: true}, {Kind: expr.AggCountStar}}
	dup := strRows(300, 0)
	dup.Rows = append(dup.Rows, strRows(210, 0).Rows...)
	addAgg("agg-distinct-aggregates", twoCols, distincts, dup)
	// A key column of DECIMAL(·,2) in which every 97th value has scale 3:
	// each page's vector starts out typed and turns Mixed at the first of
	// them, past its 64th entry in the first page.
	mixed := make([]types.Row, nrows)
	for i := range mixed {
		mixed[i] = types.Row{types.NewDecimal(int64(i%200)*100, 2), types.NewInt64(int64(i))}
		if i%97 == 96 {
			mixed[i][0] = types.NewDecimal(int64(i%200)*1000+5, 3)
		}
	}
	mixedSchema := types.NewSchema(types.Column{Name: "d", Kind: types.KindDecimal, Scale: 2}, types.Column{Name: "v", Kind: types.KindInt64})
	mixedDesc, mixedFiles := writeCOTable(t, fs, 2, "mixed", mixedSchema, mixed)
	tables[mixedDesc.Name] = mixed
	err := storage.ScanVecBatches(fs, mixedDesc.Storage, mixedSchema, mixedFiles[0], []int{0}, nil, nil, func(vb *types.VecBatch) error {
		defer types.PutVecBatch(vb)
		if !vb.Cols[0].Mixed {
			t.Error("a page of two decimal scales is not Mixed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	addAgg("agg-key-turns-mixed", []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindDecimal}}, []expr.AggSpec{{Kind: expr.AggSum, Arg: colV}, {Kind: expr.AggCountStar}},
		&plan.Scan{Table: mixedDesc, Proj: []int{0, 1}, SegFiles: mixedFiles, Schema: mixedSchema})
	for name, tr := range trees {
		t.Run(name, func(t *testing.T) {
			if refs[tr.node] == nil {
				refs[tr.node] = refRows(t, tr.node, tables)
			}
			// A join that probes from a scan's vectors gives what it gives
			// probing the same scan's rows.
			if j, ok := tr.node.(*plan.HashJoin); ok {
				if _, scanned := j.Left.(*plan.Scan); scanned {
					got := collectJoin(t, tr.ctx(t), j, true)
					sameRows(t, got, collectJoin(t, tr.ctx(t), j, false), tr.ordered)
					sameRows(t, got, refs[tr.node], tr.ordered)
					return
				}
			}
			sameRows(t, collect(t, tr.ctx(t), tr.node), refs[tr.node], tr.ordered)
		})
	}
}

// rowsOnly hides that an operator is a VecSource.
type rowsOnly struct{ Operator }

// collectJoin runs a hash join whose probe input is a scan, probing it
// from vectors or, with them hidden behind rowsOnly, row by row. A join
// that spilled probes row by row either way.
func collectJoin(t *testing.T, ctx *Context, j *plan.HashJoin, vectors bool) []types.Row {
	t.Helper()
	op := mustBuild(t, ctx, j).(*hashJoinOp)
	if !vectors {
		op.left = rowsOnly{op.left}
	}
	var out []types.Row
	err := Drain(nil, op, func(r types.Row) error {
		out = append(out, r.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := vectors && !op.spilled; (op.vin != nil) != want {
		t.Fatalf("probed from vectors: %v, want %v", op.vin != nil, want)
	}
	return out
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

// TestDistinctHonoursMemoryGrant: DISTINCT's row set, and the set of
// values a DISTINCT aggregate has met, are charged to the query's grant —
// a grant they outgrow is a clean out-of-memory error with nothing left
// reserved, never silent growth, and a grant they fit reports its peak.
func TestDistinctHonoursMemoryGrant(t *testing.T) {
	input := valuesNode(intsSchema("a", "b"), seqRows(5000, func(i int) int64 { return int64(i) })...)
	for name, tc := range map[string]struct {
		tree plan.Node
		rows int
	}{
		"rows": {&plan.Distinct{Input: input}, 5000},
		// One group: its key and accumulator fit any grant, its 5000 values
		// do not.
		"aggregate": {&plan.HashAgg{Input: input, Phase: plan.AggSingle, Schema: intsSchema("n"),
			Aggs: []expr.AggSpec{{Kind: expr.AggCount, Arg: &expr.ColRef{Idx: 0, K: types.KindInt64}, Distinct: true}}}, 1},
	} {
		t.Run(name, func(t *testing.T) {
			ctx := &Context{Segment: 0, Mem: resource.NewAccount(4 << 10)}
			err := Drain(nil, mustBuild(t, ctx, tc.tree), func(types.Row) error { return nil })
			if !errors.Is(err, resource.ErrOutOfMemory) {
				t.Fatalf("got %v, want ErrOutOfMemory", err)
			}
			if got := ctx.Mem.Used(); got != 0 {
				t.Fatalf("reservation leaked after OOM: %d bytes", got)
			}

			ctx = &Context{Segment: 0, Mem: resource.NewAccount(8 << 20)}
			ctx.Stats = NewStatsRecorder(nil, tc.tree, 0, 0)
			got := collect(t, ctx, tc.tree)
			if len(got) != tc.rows || tc.rows == 1 && got[0][0].Int() != 5000 {
				t.Fatalf("%d rows, the first %v", len(got), got[0])
			}
			if peak := ctx.Stats.Stats().Ops[0].PeakMem; peak < 5000*datumMem || peak != ctx.Mem.Peak() {
				t.Errorf("PeakMem = %d, account peak %d", peak, ctx.Mem.Peak())
			}
			if got := ctx.Mem.Used(); got != 0 {
				t.Errorf("reservation leaked: %d bytes", got)
			}
		})
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
	within := func(name string, tree plan.Node, budget float64) {
		run := drain(tree)
		run() // warm pools before measuring
		if rows < nrows/4 {
			t.Fatalf("%s: %d rows", name, rows)
		}
		if avg := testing.AllocsPerRun(5, run); avg > budget {
			t.Errorf("%s allocates %.0f times per %d rows (budget %.0f)", name, avg, nrows, budget)
		}
	}
	// The operators, the open file and the scan's batches: 32
	// allocations, up to 35 under -race, where sync.Pool drops a quarter
	// of what it is handed.
	within("scan-filter-project", sfpTree(desc, segFiles), 48)
	// Every probe row matches once: 4096 output rows over a build side
	// of 97 rows. Nothing is allocated per build row or per probe row:
	// the operators, the scan's batches, the table's few arrays — 48
	// allocations, 16 more than the pipeline above, and up to 68 under
	// -race.
	within("join", &plan.HashJoin{
		Kind: plan.InnerJoin, Left: scan, Right: valuesNode(intsSchema("rk"), build...),
		LeftKeys: []int{1}, RightKeys: []int{0}, Schema: intsSchema("k", "v", "w", "rk"),
	}, 72)
	// An inner join that probes from a scan's vectors and matches 1 % of
	// the first table's rows builds a row for each match and allocates for
	// none it passes over: probing 12 288 more rows costs the same
	// operators and scratch, and a few allocations for each of the scan's
	// few more blocks — up to 14 more under -race, where sync.Pool drops a
	// quarter of what it is handed.
	var keys [][]int64
	for k := 0; k < nrows; k += 100 {
		keys = append(keys, []int64{int64(k)})
	}
	sel1pct := func(n int) float64 {
		fs, desc, segFiles := writeIntsTable(t, n)
		ctx := &Context{Segment: 0, FS: fs}
		j := &plan.HashJoin{
			Kind:     plan.InnerJoin,
			Left:     &plan.Scan{Table: desc, Proj: []int{0, 1, 2}, SegFiles: segFiles, Schema: desc.Schema},
			Right:    valuesNode(intsSchema("rk"), keys...),
			LeftKeys: []int{0}, RightKeys: []int{0}, Schema: intsSchema("k", "v", "w", "rk"),
		}
		run := func() {
			rows = 0
			if err := Drain(nil, mustBuild(t, ctx, j), func(types.Row) error { rows++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if run(); rows != len(keys) {
			t.Fatalf("the join over %d rows gave %d, want %d", n, rows, len(keys))
		}
		return testing.AllocsPerRun(5, run)
	}
	if few, many := sel1pct(nrows), sel1pct(4*nrows); many > few+32 {
		t.Errorf("a 1%% join probing %d scanned rows allocates %.0f times, probing %d rows %.0f", 4*nrows, many, nrows, few)
	}
	// A redistribute motion hashes and encodes every row and allocates for
	// none: once the four send buffers have grown to a payload, routing
	// four times the rows costs the same operators and buffers.
	route := func(n int) float64 {
		input := valuesNode(intsSchema("k", "v"), seqRows(n, func(i int) int64 { return int64(i % 97) })...)
		return testing.AllocsPerRun(5, func() { routeSlice(t, plan.RedistributeMotion, input) })
	}
	if few, many := route(2*nrows), route(8*nrows); many > few+8 {
		t.Errorf("routing %d rows allocates %.0f times, routing %d rows %.0f", 8*nrows, many, 2*nrows, few)
	}
	// 4096 rows in, 4096 groups (or rows) out. Nothing is allocated per
	// row or per group: the key table's chunks (9), its hashes and its
	// directory and links as they double (9 and 2 × 9), the
	// accumulators' growth, the list of groups in emission order — 105
	// allocations and 74, up to 123 and 88 under -race with a collection
	// emptying the pools midway.
	within("agg", &plan.HashAgg{
		Input: scan, Phase: plan.AggSingle, Groups: []expr.Expr{colK},
		Aggs:   []expr.AggSpec{{Kind: expr.AggCountStar}},
		Schema: intsSchema("k", "count"),
	}, 144)
	within("distinct", &plan.Distinct{Input: scan}, 104)
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
	if avg := testing.AllocsPerRun(5, q1); avg > nrows/8 {
		t.Errorf("the Q1 shape allocates %.0f times over %d rows (budget %d)", avg, 4*nrows, nrows/8)
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

// sinkNode is an interconnect endpoint whose send streams count and drop
// what they are given: a motion's routing and encoding, without a wire.
type sinkNode struct{ sent, bytes int }

func (n *sinkNode) Seg() interconnect.SegID { return 0 }
func (n *sinkNode) OpenSend(interconnect.StreamID) (interconnect.SendStream, error) {
	return n, nil
}
func (n *sinkNode) OpenRecv(uint64, int16, []interconnect.SegID) (interconnect.RecvStream, error) {
	return nil, errors.New("sinkNode receives nothing")
}
func (n *sinkNode) CancelQuery(uint64) {}
func (n *sinkNode) Close() error       { return nil }

// Send implements interconnect.SendStream.
func (n *sinkNode) Send(data []byte) error {
	n.sent++
	n.bytes += len(data)
	return nil
}

// Finish implements interconnect.SendStream.
func (n *sinkNode) Finish(data []byte) error { return n.Send(data) }

// routeSlice runs a motion of the given type over rows to four receivers
// on a sinkNode and returns the payload bytes it sent.
func routeSlice(tb testing.TB, typ plan.MotionType, input *plan.Values) int {
	tb.Helper()
	net := &sinkNode{}
	motion := &plan.Motion{ID: 1, Type: typ, HashCols: []int{0}, Input: input, Receivers: []int{0, 1, 2, 3}}
	p := &plan.Plan{Slices: []*plan.Slice{{}, {ID: 1, Root: motion, Segments: []int{0}}}}
	if err := RunSlice(&Context{Query: 1, Segment: 0, Net: net}, p, 1); err != nil {
		tb.Fatal(err)
	}
	return net.bytes
}

// BenchmarkMotionRoute times the send half of a motion without a wire:
// 8 192 four-column rows hashed to one of four receivers, or encoded for
// all four.
func BenchmarkMotionRoute(b *testing.B) {
	var rows [][]int64
	for i := 0; i < 8192; i++ {
		rows = append(rows, []int64{int64(i), int64(i * 3), int64(i % 11), int64(-i)})
	}
	input := valuesNode(intsSchema("a", "b", "c", "d"), rows...)
	for _, tc := range []struct {
		name string
		typ  plan.MotionType
	}{{"hash", plan.RedistributeMotion}, {"broadcast", plan.BroadcastMotion}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if routeSlice(b, tc.typ, input) == 0 {
					b.Fatal("nothing sent")
				}
			}
		})
	}
}
