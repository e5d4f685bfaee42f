package executor

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// Columns of the lineitem-shaped table the vector aggregate is tested
// and timed on. As in lineitem, flag comes in short runs — the lines of
// an order share it — so its pages are run-length encoded with hundreds
// of runs of three values; status arrives sorted (a few long runs); note
// draws from 24 strings (dictionary pages); everything else is flat.
const (
	liFlag = iota
	liStatus
	liSupp
	liNote
	liQty
	liPrice
	liDisc
	liTax
	liShip
	liF
)

var liSchema = types.NewSchema(
	types.Column{Name: "flag", Kind: types.KindString},
	types.Column{Name: "status", Kind: types.KindString},
	types.Column{Name: "supp", Kind: types.KindInt64},
	types.Column{Name: "note", Kind: types.KindString},
	types.Column{Name: "qty", Kind: types.KindDecimal, Scale: 2},
	types.Column{Name: "price", Kind: types.KindDecimal, Scale: 2},
	types.Column{Name: "disc", Kind: types.KindDecimal, Scale: 2},
	types.Column{Name: "tax", Kind: types.KindDecimal, Scale: 2},
	types.Column{Name: "ship", Kind: types.KindDate},
	types.Column{Name: "f", Kind: types.KindFloat64},
)

// liRows generates n rows of the table; about one row in ten has a NULL
// flag, discount or float.
func liRows(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		r := types.Row{
			types.NewString([]string{"A", "N", "R"}[i/4*7919%3]),
			types.NewString([]string{"F", "O", "P"}[3*i/n]),
			types.NewInt64(rng.Int63n(1000)),
			types.NewString(fmt.Sprintf("%s %d", []string{"alpha", "beta", "carefully", "among"}[rng.Intn(4)], rng.Intn(6))),
			types.NewDecimal(100*(1+rng.Int63n(50)), 2),
			types.NewDecimal(90000+rng.Int63n(10000000), 2),
			types.NewDecimal(rng.Int63n(11), 2),
			types.NewDecimal(rng.Int63n(9), 2),
			types.NewDate(int32(8036 + rng.Intn(2500))),
			types.NewFloat64(rng.NormFloat64() * 1e6),
		}
		for _, c := range []int{liDisc, liF} {
			if rng.Intn(10) == 0 {
				r[c] = types.Null
			}
		}
		if i/4%10 == 0 {
			r[liFlag] = types.Null
		}
		rows[i] = r
	}
	return rows
}

func liCol(c int) *expr.ColRef {
	return &expr.ColRef{Idx: c, K: liSchema.Columns[c].Kind, Name: liSchema.Columns[c].Name}
}

// liAgg builds a single-phase aggregate over a scan of the whole table.
// The filter sits in the scan, whose vectors the aggregate then absorbs,
// or — pushed false — in a Select above it, which hands over rows.
func liAgg(desc *catalog.TableDesc, segFiles []catalog.SegFile, filter expr.Expr, pushed bool, groups []expr.Expr, aggs []expr.AggSpec) *plan.HashAgg {
	scan := &plan.Scan{Table: desc, Proj: liSchema.AllCols(), SegFiles: segFiles, Schema: liSchema}
	var in plan.Node = scan
	if pushed {
		scan.Filter = filter
	} else if filter != nil {
		in = &plan.Select{Input: scan, Pred: filter}
	}
	cols := make([]types.Column, len(groups)+len(aggs))
	for i := range cols {
		cols[i] = types.Column{Name: fmt.Sprintf("c%d", i)}
	}
	return &plan.HashAgg{Input: in, Phase: plan.AggSingle, Groups: groups, Aggs: aggs, Schema: types.NewSchema(cols...)}
}

// The shapes of TPC-H Q1 and Q6 over the table.
func q1Shape() (filter expr.Expr, groups []expr.Expr, aggs []expr.AggSpec) {
	one := expr.NewConst(types.NewInt64(1))
	discounted := expr.NewBinOp(expr.OpMul, liCol(liPrice), expr.NewBinOp(expr.OpSub, one, liCol(liDisc)))
	return expr.NewBinOp(expr.OpLe, liCol(liShip), expr.NewConst(types.NewDate(10471))),
		[]expr.Expr{liCol(liFlag), liCol(liStatus)},
		[]expr.AggSpec{
			{Kind: expr.AggSum, Arg: liCol(liQty)}, {Kind: expr.AggSum, Arg: liCol(liPrice)}, {Kind: expr.AggSum, Arg: discounted},
			{Kind: expr.AggSum, Arg: expr.NewBinOp(expr.OpMul, discounted, expr.NewBinOp(expr.OpAdd, one, liCol(liTax)))},
			{Kind: expr.AggCount, Arg: liCol(liQty)}, {Kind: expr.AggCount, Arg: liCol(liPrice)},
			{Kind: expr.AggSum, Arg: liCol(liDisc)}, {Kind: expr.AggCount, Arg: liCol(liDisc)}, {Kind: expr.AggCountStar},
		}
}

func q6Shape() (filter expr.Expr, groups []expr.Expr, aggs []expr.AggSpec) {
	conj := []expr.Expr{
		expr.NewBinOp(expr.OpGe, liCol(liShip), expr.NewConst(types.NewDate(8766))),
		expr.NewBinOp(expr.OpLt, liCol(liShip), expr.NewConst(types.NewDate(9131))),
		&expr.Between{E: liCol(liDisc), Lo: expr.NewConst(types.NewDecimal(5, 2)), Hi: expr.NewConst(types.NewDecimal(7, 2))},
		expr.NewBinOp(expr.OpLt, liCol(liQty), expr.NewConst(types.NewInt64(24))),
	}
	return expr.AndAll(conj), nil, []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.NewBinOp(expr.OpMul, liCol(liPrice), liCol(liDisc))}}
}

// encodedRows renders rows as their canonical encodings, sorted: two
// results are the same multiset exactly when these are equal, floats
// compared bit for bit.
func encodedRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(types.EncodeRow(nil, r))
	}
	sort.Strings(out)
	return out
}

// TestAggVecMatchesBatchPath is the property test of the vector
// aggregate at the operator level: a hash aggregate absorbing vector
// batches from a CO scan must produce exactly the rows it does absorbing
// row batches (the same filter in a Select above the scan, which is no
// VecSource), and both must match the plain-loop reference bit for bit,
// float sums included — over one, two and three group columns in
// dictionary, run-length and flat pages, a computed group key, a scalar
// aggregate, a filter of kernels alone and one with a residual (LIKE /
// OR) conjunct, and a work_mem so small that spill diversion starts in
// the middle of a vector batch.
func TestAggVecMatchesBatchPath(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := liRows(rand.New(rand.NewSource(11)), 16000)
	desc, segFiles := writeCOTable(t, fs, 10, "li", liSchema, rows)
	tables := map[string][]types.Row{desc.Name: rows}
	err = storage.ScanVecBatches(fs, desc.Storage, liSchema, segFiles[0], []int{liFlag, liStatus, liNote, liSupp}, nil, nil, func(vb *types.VecBatch) error {
		defer types.PutVecBatch(vb)
		if f, s, n, k := &vb.Cols[0], &vb.Cols[1], &vb.Cols[2], &vb.Cols[3]; f.Enc != types.VecRLE || f.Entries() <= memoLimit ||
			s.Enc != types.VecRLE || s.Entries() > 3 || n.Enc != types.VecDict || k.Enc != types.VecFlat {
			t.Errorf("flag enc %d (%d entries), status enc %d (%d), note enc %d, supp enc %d", f.Enc, f.Entries(), s.Enc, s.Entries(), n.Enc, k.Enc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	q1Filter, q1Groups, q1Aggs := q1Shape()
	q6Filter, _, q6Aggs := q6Shape()
	residual := expr.NewBinOp(expr.OpAnd, q1Filter, expr.NewBinOp(expr.OpOr,
		&expr.Like{E: liCol(liNote), Pattern: "a%"}, expr.NewBinOp(expr.OpLt, liCol(liSupp), expr.NewConst(types.NewInt64(100)))))
	if expr.CompileFilter(residual).Residual() == nil || expr.CompileFilter(q6Filter).Residual() != nil {
		t.Fatal("the LIKE / OR conjunct must be a residual, the Q6 filter all kernels")
	}
	floats := []expr.AggSpec{
		{Kind: expr.AggSum, Arg: liCol(liF)}, {Kind: expr.AggAvg, Arg: liCol(liF)}, {Kind: expr.AggMax, Arg: liCol(liF)},
		{Kind: expr.AggMin, Arg: liCol(liNote)}, {Kind: expr.AggCount, Arg: liCol(liSupp), Distinct: true},
		{Kind: expr.AggSum, Arg: expr.NewBinOp(expr.OpDiv, liCol(liPrice), liCol(liDisc))},
	}
	for _, tc := range []struct {
		name   string
		filter expr.Expr
		groups []expr.Expr
		aggs   []expr.AggSpec
		spills bool
	}{
		{"one key of many runs", q1Filter, []expr.Expr{liCol(liFlag)}, floats, false},
		{"a dictionary key and a sorted one", residual, []expr.Expr{liCol(liNote), liCol(liStatus)}, floats[:3], false},
		{"q1: two run-length keys", q1Filter, q1Groups, q1Aggs, false},
		{"q1 with a residual", residual, q1Groups, append(append([]expr.AggSpec{}, q1Aggs...), floats...), false},
		{"three keys, one flat", residual, []expr.Expr{liCol(liFlag), liCol(liStatus), liCol(liSupp)}, floats[:3], true},
		{"a computed key", q1Filter, []expr.Expr{expr.NewBinOp(expr.OpMod, liCol(liSupp), expr.NewConst(types.NewInt64(7))), liCol(liStatus)}, floats[:2], true},
		{"one flat key, unfiltered", nil, []expr.Expr{liCol(liSupp)}, q1Aggs, true},
		{"q6: scalar", q6Filter, nil, q6Aggs, false},
		{"scalar, unfiltered", nil, nil, append(append([]expr.AggSpec{}, q1Aggs...), floats...), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(pushed bool) *plan.HashAgg { return liAgg(desc, segFiles, tc.filter, pushed, tc.groups, tc.aggs) }
			want := encodedRows(refRows(t, mk(true), tables))
			for _, workMem := range []int64{0, 2 << 10} {
				for _, pushed := range []bool{true, false} {
					ctx := &Context{Segment: 0, FS: fs}
					if workMem > 0 {
						ctx, _ = spillCtx(t, workMem)
						ctx.FS = fs
					}
					if vec := mustBuild(t, ctx, mk(pushed)).(*hashAggOp).vecIn != nil; vec != (pushed || tc.filter == nil) {
						t.Fatalf("filter pushed=%v but vector absorb=%v", pushed, vec)
					}
					files0, _ := resource.SpillStats()
					got := encodedRows(collect(t, ctx, mk(pushed)))
					if files1, _ := resource.SpillStats(); workMem > 0 && tc.spills && files1 == files0 {
						t.Errorf("work_mem %d: the aggregate did not spill", workMem)
					}
					if len(got) != len(want) {
						t.Fatalf("work_mem %d pushed %v: %d groups, reference has %d", workMem, pushed, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							row, _, _ := types.DecodeRow([]byte(got[i]))
							ref, _, _ := types.DecodeRow([]byte(want[i]))
							t.Fatalf("work_mem %d pushed %v: group %v, reference has %v", workMem, pushed, row, ref)
						}
					}
				}
			}
		})
	}
}

// TestAggKeepsNoPageStrings: a string read out of a column vector is a
// slice of the one string its page's column shares, and the aggregate
// keeps group keys and running minima for as long as it runs. It must
// keep copies: one kept slice would hold a whole page's strings alive —
// beyond the block cache's byte account once the page is evicted, and
// beyond what the aggregate's own grant was charged. On cached pages,
// whose strings stay where they are, no string of the result may lie
// inside one, absorbing vectors or rows.
func TestAggKeepsNoPageStrings(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	desc, segFiles := writeCOTable(t, fs, 10, "li", liSchema, liRows(rand.New(rand.NewSource(5)), 3000))
	cache := newWarmCache(t, fs, desc, segFiles)
	type span struct{ lo, hi uintptr }
	var pages []span
	err = cache.ScanVecBatches(fs, desc.Storage, liSchema, segFiles[0], liSchema.AllCols(), nil, nil, func(vb *types.VecBatch) error {
		defer types.PutVecBatch(vb)
		for j := range vb.Cols {
			if v := &vb.Cols[j]; v.Str != "" {
				if !v.Shared {
					t.Errorf("column %d was not served from the cache", j)
				}
				lo := uintptr(unsafe.Pointer(unsafe.StringData(v.Str)))
				pages = append(pages, span{lo, lo + uintptr(len(v.Str))})
			}
		}
		return nil
	})
	if err != nil || len(pages) == 0 {
		t.Fatalf("%d string pages, err %v", len(pages), err)
	}
	filter := expr.NewBinOp(expr.OpGe, liCol(liSupp), expr.NewConst(types.NewInt64(0)))
	groups := []expr.Expr{liCol(liNote), liCol(liFlag)}
	aggs := []expr.AggSpec{{Kind: expr.AggMin, Arg: liCol(liNote)}, {Kind: expr.AggMax, Arg: liCol(liStatus)}}
	for _, pushed := range []bool{true, false} {
		ctx := &Context{Segment: 0, FS: fs, Cache: cache}
		strs := 0
		for _, row := range collect(t, ctx, liAgg(desc, segFiles, filter, pushed, groups, aggs)) {
			for c, d := range row {
				if d.S == "" {
					continue
				}
				strs++
				at := uintptr(unsafe.Pointer(unsafe.StringData(d.S)))
				for _, p := range pages {
					if at >= p.lo && at < p.hi {
						t.Fatalf("pushed=%v: column %d of group %v is a slice of a cached page", pushed, c, row)
					}
				}
			}
		}
		if strs == 0 {
			t.Fatalf("pushed=%v: no string in the result", pushed)
		}
	}
}

// newWarmCache returns a block cache that holds every block of the
// table: the first scan remembers a block, the second admits it.
func newWarmCache(tb testing.TB, fs *hdfs.FileSystem, desc *catalog.TableDesc, segFiles []catalog.SegFile) *storage.BlockCache {
	tb.Helper()
	ctx := &Context{Segment: 0, FS: fs, Cache: storage.NewBlockCache()}
	for i := 0; i < 2; i++ {
		scan := &plan.Scan{Table: desc, Proj: desc.Schema.AllCols(), SegFiles: segFiles, Schema: desc.Schema}
		if err := Drain(ctx, mustBuild(tb, ctx, scan), nil); err != nil {
			tb.Fatal(err)
		}
	}
	return ctx.Cache
}

// benchAgg times one aggregate over the lineitem-shaped table on a warm
// segment block cache: what a statement's partial phase costs on one
// segment once its blocks are cached.
func benchAgg(b *testing.B, rows int, filter expr.Expr, groups []expr.Expr, aggs []expr.AggSpec) {
	benchAggOver(b, liSchema, liRows(rand.New(rand.NewSource(1)), rows), filter, groups, aggs)
}

// benchAggOver is benchAgg over a table of the given rows.
func benchAggOver(b *testing.B, schema *types.Schema, rows []types.Row, filter expr.Expr, groups []expr.Expr, aggs []expr.AggSpec) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	desc, segFiles := writeCOTable(b, fs, 10, "li", schema, rows)
	ctx := &Context{Segment: 0, FS: fs, Cache: newWarmCache(b, fs, desc, segFiles)}
	node := liAgg(desc, segFiles, filter, true, groups, aggs)
	node.Input.(*plan.Scan).Proj, node.Input.(*plan.Scan).Schema = schema.AllCols(), schema
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Drain(ctx, mustBuild(b, ctx, node), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVecAgg times the vector aggregate on 15 000 rows, a segment's
// share of lineitem at the tracked scale: the Q1 shape (two encoded
// group columns, nine aggregates over shared decimal arithmetic), the Q6
// shape (four filter kernels, one product, no groups), an integer group
// key with a thousand groups, a two-column key of a string and a decimal
// with 1 200, and the Q18 shape (a flat integer key of about four rows a
// group, an order's lines, summing a decimal).
func BenchmarkVecAgg(b *testing.B) {
	const rows = 15000
	b.Run("q1shape", func(b *testing.B) {
		filter, groups, aggs := q1Shape()
		benchAgg(b, rows, filter, groups, aggs)
	})
	b.Run("q6shape", func(b *testing.B) {
		filter, groups, aggs := q6Shape()
		benchAgg(b, rows, filter, groups, aggs)
	})
	b.Run("int_key", func(b *testing.B) {
		benchAgg(b, rows, nil, []expr.Expr{liCol(liSupp)}, []expr.AggSpec{{Kind: expr.AggSum, Arg: liCol(liPrice)}, {Kind: expr.AggCountStar}})
	})
	b.Run("str_key", func(b *testing.B) {
		benchAgg(b, rows, nil, []expr.Expr{liCol(liNote), liCol(liQty)}, []expr.AggSpec{{Kind: expr.AggSum, Arg: liCol(liPrice)}, {Kind: expr.AggCountStar}})
	})
	b.Run("q18shape", func(b *testing.B) {
		// The keys are shuffled so that no page of them is run-length
		// encoded: the key vectors are flat, as a row table's are.
		schema := types.NewSchema(types.Column{Name: "okey", Kind: types.KindInt64}, types.Column{Name: "qty", Kind: types.KindDecimal, Scale: 2})
		rng := rand.New(rand.NewSource(1))
		in := make([]types.Row, rows)
		for i, k := range rng.Perm(rows) {
			in[i] = types.Row{types.NewInt64(int64(k/4) * 32), types.NewDecimal(100*(1+rng.Int63n(50)), 2)}
		}
		okey := &expr.ColRef{Idx: 0, K: types.KindInt64, Name: "okey"}
		qty := &expr.ColRef{Idx: 1, K: types.KindDecimal, Name: "qty"}
		benchAggOver(b, schema, in, nil, []expr.Expr{okey}, []expr.AggSpec{{Kind: expr.AggSum, Arg: qty}})
	})
}

// TestRadixOrderIsStableHashOrder: the order a pass emits its groups in
// is a stable sort by key hash — hash first, then the order the groups
// were made in — on random hashes, on hashes drawn from a handful (ties
// everywhere), on hashes that differ in one byte alone, and at the sizes
// where the radix pass has nothing to do.
func TestRadixOrderIsStableHashOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var order, tmp []int32
	for _, n := range []int{0, 1, 2, 3, 100, 256, 1000, 5000} {
		for _, shape := range []string{"random", "ties", "one byte"} {
			pool := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), 0, ^uint64(0)}
			hashes := make([]uint64, n)
			for i := range hashes {
				switch shape {
				case "random":
					hashes[i] = rng.Uint64()
				case "ties":
					hashes[i] = pool[rng.Intn(len(pool))]
				default:
					hashes[i] = 0xdeadbeef_0000_cafe | uint64(rng.Intn(256))<<24
				}
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(x, y int) bool { return hashes[want[x]] < hashes[want[y]] })
			if order, tmp = radixOrder(hashes, order, tmp); !slices.Equal(order, want) {
				t.Fatalf("%d %s hashes: radix order %v, want %v", n, shape, order[:min(n, 20)], want[:min(n, 20)])
			}
		}
	}
}

// TestGroupOrderIsAFunctionOfTheKeys: a hash aggregate emits its groups
// in one order whatever order its rows arrive in — by the hash of the
// key, ties as the groups were made — through the vector absorb (a
// column scan's batches) and the row absorb (a Values input) alike.
func TestGroupOrderIsAFunctionOfTheKeys(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt64}, types.Column{Name: "s", Kind: types.KindString}, types.Column{Name: "v", Kind: types.KindInt64})
	var rows []types.Row
	keys := map[string]bool{}
	for i := range 3000 {
		r := types.Row{types.NewInt64(int64(i % 400)), types.NewString(fmt.Sprintf("s%d ", i%3)), types.NewInt64(int64(i))}
		if i%37 == 0 {
			r[0] = types.Null
		}
		if i%41 == 0 {
			r[1] = types.NewString("")
		}
		keys[r[:2].String()] = true
		rows = append(rows, r)
	}
	shuffled := slices.Clone(rows)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	groups := []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt64}, &expr.ColRef{Idx: 1, K: types.KindString}}
	aggs := []expr.AggSpec{{Kind: expr.AggCountStar}, {Kind: expr.AggSum, Arg: &expr.ColRef{Idx: 2, K: types.KindInt64}}}
	out := intsSchema("k", "s", "count", "sum")
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var first []types.Row
	for i, in := range [][]types.Row{rows, shuffled} {
		desc, segFiles := writeCOTable(t, fs, int64(20+i), fmt.Sprintf("perm%d", i), schema, in, 512)
		for _, src := range []plan.Node{
			&plan.Scan{Table: desc, Proj: schema.AllCols(), SegFiles: segFiles, Schema: schema},
			&plan.Values{Rows: in, Schema: schema},
		} {
			got := collect(t, &Context{Segment: 0, FS: fs}, &plan.HashAgg{Input: src, Phase: plan.AggSingle, Groups: groups, Aggs: aggs, Schema: out})
			if first == nil {
				first = got
				if !slices.IsSortedFunc(got, func(a, b types.Row) int {
					ha, _ := types.HashKeys(a, []int{0, 1})
					hb, _ := types.HashKeys(b, []int{0, 1})
					return cmp.Compare(ha, hb)
				}) || len(got) != len(keys) {
					t.Fatalf("%d groups, want %d in key-hash order", len(got), len(keys))
				}
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(first) {
				t.Fatalf("permutation %d, %T input: groups in another order", i, src)
			}
		}
	}
}
