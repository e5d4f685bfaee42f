package expr

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hawq/internal/testutil"
	"hawq/internal/types"
)

var vecEncs = []types.VecEnc{types.VecFlat, types.VecRLE, types.VecDict}

// lowCardDatum draws from a small domain so predicates hit runs and
// dictionary entries, including NULLs.
func lowCardDatum(rng *rand.Rand) types.Datum {
	switch rng.Intn(5) {
	case 0:
		return types.Null
	case 1:
		return types.NewInt64(rng.Int63n(5))
	case 2:
		return types.NewString(fmt.Sprintf("s%d", rng.Intn(4)))
	case 3:
		return types.NewDate(int32(rng.Intn(4)))
	default:
		return types.NewInt64(rng.Int63n(3) + 100)
	}
}

// FilterVec compiles pred and applies it to one batch.
func FilterVec(pred Expr, vb *types.VecBatch) error {
	return CompileFilter(pred).Apply(vb)
}

// selOf returns the surviving rows of vb, a nil selection spelled out.
func selOf(vb *types.VecBatch) []int32 {
	if vb.Sel != nil {
		return append([]int32{}, vb.Sel...)
	}
	out := []int32{}
	for i := 0; i < vb.Len(); i++ {
		out = append(out, int32(i))
	}
	return out
}

// rowAt assembles row r of column-major values.
func rowAt(cols [][]types.Datum, r int) types.Row {
	row := make(types.Row, len(cols))
	for j := range cols {
		row[j] = cols[j][r]
	}
	return row
}

// wantSel is the row semantics of a filter: the rows of sel (nil: all)
// for which EvalBool says true.
func wantSel(t testing.TB, pred Expr, cols [][]types.Datum, sel []int32) []int32 {
	t.Helper()
	out := []int32{}
	keep := func(r int32) {
		pass, err := EvalBool(pred, rowAt(cols, int(r)))
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		if pass {
			out = append(out, r)
		}
	}
	if sel == nil {
		for r := range cols[0] {
			keep(int32(r))
		}
	} else {
		for _, r := range sel {
			keep(r)
		}
	}
	return out
}

// TestFilterVecMatchesFilterBatch is the property test: for random
// batches, random per-column encodings, and random conjunctions of
// kernel and non-kernel predicates, filtering the vectors then
// materializing must be byte-identical to materializing then keeping
// the rows EvalBool passes.
func TestFilterVecMatchesFilterBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		ncols := 1 + rng.Intn(3)
		n := 1 + rng.Intn(200)
		cols := make([][]types.Datum, ncols)
		colKind := make([]int, ncols)
		for j := range cols {
			colKind[j] = rng.Intn(2)
			cols[j] = make([]types.Datum, n)
			for i := range cols[j] {
				if colKind[j] == 0 {
					// Sorted-ish low-cardinality ints: long runs.
					cols[j][i] = types.NewInt64(int64(i / (1 + rng.Intn(20))))
				} else {
					cols[j][i] = lowCardDatum(rng)
				}
			}
		}
		colEnc := make([]types.VecEnc, ncols)
		for j := range colEnc {
			colEnc[j] = vecEncs[rng.Intn(len(vecEncs))]
		}
		// Build a conjunction of up to 3 predicates over
		// class-homogeneous columns (types.Compare panics across
		// classes, and the binder lets no such comparison through).
		nPreds := 1 + rng.Intn(3)
		var pred Expr
		for p := 0; p < nPreds; p++ {
			col := rng.Intn(ncols)
			op := []BinOpKind{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}[rng.Intn(6)]
			var want types.Datum
			if colKind[col] == 0 {
				want = types.NewInt64(rng.Int63n(10))
			} else {
				// Pick a constant in the class of the column's first
				// non-NULL value; skip columns mixing classes.
				want = types.NewInt64(rng.Int63n(5))
				for _, d := range cols[col] {
					if !d.IsNull() {
						switch d.K {
						case types.KindString:
							want = types.NewString(fmt.Sprintf("s%d", rng.Intn(4)))
						case types.KindDate:
							want = types.NewDate(int32(rng.Intn(4)))
						}
						break
					}
				}
				ok := true
				for _, d := range cols[col] {
					if !d.IsNull() && !types.Comparable(d.K, want.K) {
						ok = false
						break
					}
				}
				if !ok {
					continue // fewer conjuncts this trial
				}
			}
			var c Expr = &BinOp{Op: op, L: &ColRef{Idx: col}, R: &Const{D: want}}
			switch rng.Intn(4) {
			case 0: // no kernel: evaluated over the rows the kernels leave
				c = &BinOp{Op: OpOr, L: c, R: &IsNull{E: &ColRef{Idx: col}}}
			case 1:
				c = &BinOp{Op: commuted[op], L: &Const{D: want}, R: &ColRef{Idx: col}}
			}
			if pred == nil {
				pred = c
			} else {
				pred = &BinOp{Op: OpAnd, L: pred, R: c}
			}
		}
		if pred == nil {
			continue
		}

		// Reference: materialize everything, then an EvalBool loop.
		vbRef := testutil.VecBatch(cols, colEnc)
		ref := types.GetBatch(0)
		vbRef.Materialize(ref, nil)
		types.PutVecBatch(vbRef)
		kept := 0
		for i := 0; i < ref.Len(); i++ {
			pass, err := EvalBool(pred, ref.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if pass {
				ref.MoveRow(kept, i)
				kept++
			}
		}
		ref.Truncate(kept)

		// Vector path: FilterVec then materialize survivors.
		vb := testutil.VecBatch(cols, colEnc)
		if err := FilterVec(pred, vb); err != nil {
			t.Fatal(err)
		}
		got := types.GetBatch(0)
		vb.Materialize(got, nil)
		types.PutVecBatch(vb)

		if got.Len() != ref.Len() {
			t.Fatalf("trial %d (enc %v) %s: vec path kept %d rows, row path %d", trial, colEnc, pred, got.Len(), ref.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if !reflect.DeepEqual(got.Row(i), ref.Row(i)) {
				t.Fatalf("trial %d row %d: %v != %v", trial, i, got.Row(i), ref.Row(i))
			}
		}
		types.PutBatch(ref)
		types.PutBatch(got)
	}
}

// TestFilterVecResidual: a conjunct without a kernel is reported as the
// residual and applied all the same, to the rows the kernels left, so
// the selection that comes out is the whole predicate's.
func TestFilterVecResidual(t *testing.T) {
	cols := [][]types.Datum{{types.NewInt64(1), types.NewInt64(2), types.NewInt64(3)}}
	vb := testutil.VecBatch(cols, []types.VecEnc{types.VecFlat})
	defer types.PutVecBatch(vb)
	kernel := &BinOp{Op: OpGt, L: &ColRef{Idx: 0}, R: &Const{D: types.NewInt64(1)}}
	// col+0 < 3 has neither a column nor a constant on the left.
	hard := &BinOp{Op: OpLt, L: &BinOp{Op: OpAdd, L: &ColRef{Idx: 0}, R: &Const{D: types.NewInt64(0)}}, R: &Const{D: types.NewInt64(3)}}
	f := CompileFilter(&BinOp{Op: OpAnd, L: kernel, R: hard})
	if f.Residual() != Expr(hard) {
		t.Fatalf("residual = %v, want %v", f.Residual(), hard)
	}
	if err := f.Apply(vb); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vb.Sel, []int32{1}) {
		t.Fatalf("kept rows %v, want [1]", vb.Sel)
	}
	if CompileFilter(kernel).Residual() != nil {
		t.Error("kernel shape left a residual")
	}
	if CompileFilter(nil).Residual() != nil {
		t.Error("nil predicate left a residual")
	}
	// A column beyond the batch is the row path's error, not a panic.
	wide := CompileFilter(&BinOp{Op: OpEq, L: &ColRef{Idx: 5}, R: &Const{D: types.NewInt64(1)}})
	if err := wide.Apply(vb); err == nil {
		t.Error("comparison with a column the batch does not have passed")
	}
}

// TestConjunctsAndAll round-trips predicate decomposition.
func TestConjunctsAndAll(t *testing.T) {
	a := &BinOp{Op: OpEq, L: &ColRef{Idx: 0}, R: &Const{D: types.NewInt64(1)}}
	b := &BinOp{Op: OpLt, L: &ColRef{Idx: 1}, R: &Const{D: types.NewInt64(2)}}
	c := &BinOp{Op: OpGt, L: &ColRef{Idx: 2}, R: &Const{D: types.NewInt64(3)}}
	all := Conjuncts(&BinOp{Op: OpAnd, L: &BinOp{Op: OpAnd, L: a, R: b}, R: c}, nil)
	if len(all) != 3 || all[0] != Expr(a) || all[1] != Expr(b) || all[2] != Expr(c) {
		t.Fatalf("Conjuncts returned %v", all)
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	if AndAll([]Expr{a}) != Expr(a) {
		t.Error("single conjunct should come back unchanged")
	}
}

// TestBoundParamIsAConstant: a bound $n is to the kernels what a literal
// is — `col = $1` narrows the selection in a kernel — and so is
// anything computed from bound values alone,
// while an unbound or NULL-bound placeholder is left to the row path,
// which still answers as SQL says: NULL keeps no row, unbound is the
// protocol error.
func TestBoundParamIsAConstant(t *testing.T) {
	day := types.MustParseDate("1995-03-15")
	cols := [][]types.Datum{
		{types.NewInt64(1), types.NewInt64(2), types.NewInt64(2), types.Null},
		{types.NewString("a"), types.NewString("b"), types.NewString("a"), types.NewString("b")},
		{day, types.NewDate(0), day, types.Null},
	}
	encs := []types.VecEnc{types.VecFlat, types.VecDict, types.VecRLE}
	for j, tc := range []struct {
		val  types.Datum
		want []int32
	}{
		{types.NewInt64(2), []int32{1, 2}},
		{types.NewString("a"), []int32{0, 2}},
		{day, []int32{0, 2}},
	} {
		param := &Param{Idx: 0, K: tc.val.K}
		pred := &BinOp{Op: OpEq, L: &ColRef{Idx: j}, R: param}
		if CompileFilter(pred).Residual() == nil {
			t.Fatalf("col %d: unbound parameter was kernelized", j)
		}
		bound, err := Bind(pred, []types.Datum{tc.val}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if CompileFilter(bound).Residual() != nil {
			t.Fatalf("col %d: bound %v parameter is not kernelized", j, tc.val.K)
		}
		vb := testutil.VecBatch(cols, encs)
		if err := FilterVec(bound, vb); err != nil || !reflect.DeepEqual(vb.Sel, tc.want) {
			t.Fatalf("col %d: FilterVec sel %v err %v, want %v", j, vb.Sel, err, tc.want)
		}
		types.PutVecBatch(vb)
	}
	// $1 + 1 with $1 bound is fixed for the execution too.
	sum := &BinOp{Op: OpEq, L: &ColRef{Idx: 0}, R: &BinOp{Op: OpAdd, L: &Param{Idx: 0, K: types.KindInt64}, R: &Const{D: types.NewInt64(1)}}}
	if _, ok := ExecConst(sum.R); ok {
		t.Fatal("an expression over an unbound parameter has a value")
	}
	boundSum, err := Bind(sum, []types.Datum{types.NewInt64(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := ExecConst(boundSum.(*BinOp).R); !ok || d != types.NewInt64(2) || CompileFilter(boundSum).Residual() != nil {
		t.Fatalf("$1 + 1 bound to 1: %v %v", d, ok)
	}
	// NULL-bound: no kernel, and the row path keeps nothing.
	pred, err := Bind(&BinOp{Op: OpEq, L: &ColRef{Idx: 0}, R: &Param{Idx: 0, K: types.KindInt64}}, []types.Datum{types.Null}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CompileFilter(pred).Residual() == nil {
		t.Fatal("NULL-bound parameter was kernelized")
	}
	vb := testutil.VecBatch(cols, []types.VecEnc{types.VecFlat, types.VecFlat, types.VecFlat})
	defer types.PutVecBatch(vb)
	if err := FilterVec(pred, vb); err != nil || vb.SelCount() != 0 {
		t.Fatalf("col = NULL kept %d rows, err %v", vb.SelCount(), err)
	}
	// Unbound: the row path reports it, on vectors and on rows.
	unbound := &BinOp{Op: OpEq, L: &ColRef{Idx: 0}, R: &Param{Idx: 0, K: types.KindInt64}}
	vb.Sel = nil
	if err := FilterVec(unbound, vb); err == nil {
		t.Fatal("unbound parameter evaluated over vectors")
	}
	if _, err := EvalBool(unbound, types.Row{types.NewInt64(1)}); err == nil {
		t.Fatal("unbound parameter evaluated")
	}
}

// kernelColumns returns named columns of n rows covering every kind the
// kernels take, each without NULLs, with some and with only NULLs, plus
// the columns that land in the Mixed fallback.
func kernelColumns(rng *rand.Rand, n int) (names []string, cols map[string][]types.Datum) {
	gen := []struct {
		name string
		g    func(i int) types.Datum
	}{
		{"int64", func(i int) types.Datum { return types.NewInt64(int64(i/7) - 3) }},
		{"int32", func(int) types.Datum { return types.NewInt32(int32(rng.Intn(9) - 4)) }},
		{"bigint", func(int) types.Datum { return types.NewInt64(rng.Int63() - math.MaxInt64/2) }},
		{"date", func(i int) types.Datum { return types.NewDate(int32(9000 + i/5)) }},
		{"bool", func(int) types.Datum { return types.NewBool(rng.Intn(2) == 0) }},
		{"dec2", func(int) types.Datum { return types.NewDecimal(rng.Int63n(6000)-1000, 2) }},
		{"dec4", func(int) types.Datum { return types.NewDecimal(rng.Int63n(90000), 4) }},
		{"dec5", func(int) types.Datum { return types.NewDecimal(rng.Int63n(90000), 5) }},
		{"bigdec", func(int) types.Datum { return types.NewDecimal(rng.Int63n(1<<40)<<12, 2) }},
		{"float", func(int) types.Datum {
			return types.NewFloat64([]float64{0, -0.0, 1.5, 24, math.NaN(), math.Inf(1), -7.25}[rng.Intn(7)])
		}},
		{"string", func(int) types.Datum { return types.NewString([]string{"", "a", "ab", "b", "MAIL"}[rng.Intn(5)]) }},
		{"scales", func(int) types.Datum { return types.NewDecimal(rng.Int63n(3000), int8(1+rng.Intn(2))) }},
		{"numbers", func(int) types.Datum {
			return []types.Datum{types.NewInt64(24), types.NewFloat64(23.5), types.NewDecimal(2450, 2)}[rng.Intn(3)]
		}},
		{"text", func(int) types.Datum { return types.NewString(likeTexts[rng.Intn(len(likeTexts))]) }},
		{"bytea", func(int) types.Datum { return types.NewBytes([]byte(likeTexts[rng.Intn(len(likeTexts))])) }},
		{"strs", func(i int) types.Datum {
			s := likeTexts[rng.Intn(len(likeTexts))]
			if i%3 == 0 {
				return types.NewBytes([]byte(s))
			}
			return types.NewString(s)
		}},
	}
	cols = map[string][]types.Datum{}
	for _, c := range gen {
		plain, some, all := make([]types.Datum, n), make([]types.Datum, n), make([]types.Datum, n)
		for i := range plain {
			plain[i] = c.g(i)
			if some[i] = c.g(i); rng.Intn(4) == 0 {
				some[i] = types.Null
			}
		}
		cols[c.name], cols[c.name+"?"], cols[c.name+"!"] = plain, some, all
		names = append(names, c.name, c.name+"?", c.name+"!")
	}
	return names, cols
}

// likeTexts are the values of the LIKE test columns: multibyte text,
// wildcards and escapes as data, and comment-like text.
var likeTexts = []string{"", "a", "é", "aé", "a%b", "a_b", "axb", `a\b`, "日本語", "special requests",
	"quickly special foxes sleep. requests", "requests special"}

// likePatterns are the patterns the LIKE kernel is held to the row path
// over: prefix, suffix, infix runs, '_', escapes and the empty pattern.
var likePatterns = []string{"", "%", "a%", "%b", "%a%b%", "_", "a_", "_é%", "__", `a\%b`, `%\_%`, `a\\b`,
	"%special%requests%", "é%", "%語", "%日_語"}

// kindOf is the kind of a test column's non-NULL values (KindNull:
// several, or none).
func kindOf(vals []types.Datum) types.Kind {
	k := types.KindNull
	for _, d := range vals {
		if !d.IsNull() {
			if k != types.KindNull && k != d.K {
				return types.KindNull
			}
			k = d.K
		}
	}
	return k
}

// eachPair reports whether ok holds of the kinds of every pair of
// non-NULL values a and b hold in the same row.
func eachPair(a, b []types.Datum, ok func(a, b types.Kind) bool) bool {
	for i := range a {
		if !a[i].IsNull() && !b[i].IsNull() && !ok(a[i].K, b[i].K) {
			return false
		}
	}
	return true
}

// testSels are the selections every kernel is tried under.
func testSels(n int) [][]int32 {
	var sparse []int32
	for i := 1; i < n; i += 3 {
		sparse = append(sparse, int32(i))
	}
	return [][]int32{nil, sparse, {}}
}

// TestKernelsMatchRowSemantics holds every comparison and arithmetic
// kernel to the row semantics, not to itself: generated vectors of every
// kind × {no NULL, some, all NULL} × {flat, RLE, dict} × the Mixed
// fallback × {no, sparse, empty selection}, against EvalBool / Eval per
// row, bit for bit — decimal scale alignment (l_quantity < 24), decimal
// against float, constants no scale can hold, const ⋄ col commuting,
// BETWEEN, NULL constants, col ⋄ col, date ± int, wrapping integers, the
// decimal product that overflows into a float, division and its zeros.
func TestKernelsMatchRowSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 41
	names, cols := kernelColumns(rng, n)
	consts := []types.Datum{
		types.Null, types.NewInt64(24), types.NewInt64(0), types.NewInt32(-2),
		types.NewDecimal(2400, 2), types.NewDecimal(5, 1), types.NewDecimal(5, 3), types.NewDecimal(math.MaxInt64/10, 0),
		types.NewFloat64(23.5), types.NewFloat64(math.NaN()),
		types.NewDate(9004), types.NewBool(true), types.NewString("ab"), types.NewBytes([]byte("b")),
	}
	ops := []BinOpKind{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	// partners are the columns every column meets as the other operand.
	partners := []string{"int64", "int32?", "bigint", "date?", "bool", "dec2", "dec2?", "dec4", "bigdec?", "float?",
		"string?", "scales", "numbers?", "int64!"}
	comparable := func(vals []types.Datum, k types.Kind) bool {
		for _, d := range vals {
			if !d.IsNull() && k != types.KindNull && !types.Comparable(d.K, k) {
				return false
			}
		}
		return true
	}
	filters := 0
	checkFilter := func(pred Expr, data [][]types.Datum) {
		for _, enc := range vecEncs {
			for _, sel := range testSels(n) {
				encs := make([]types.VecEnc, len(data))
				for j := range encs {
					encs[j] = enc
				}
				vb := testutil.VecBatch(data, encs)
				if sel != nil {
					vb.Sel = append(make([]int32, 0, len(sel)), sel...)
				}
				if err := FilterVec(pred, vb); err != nil {
					t.Fatalf("%s: %v", pred, err)
				}
				if got, want := selOf(vb), wantSel(t, pred, data, sel); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s enc %d sel %v over %v:\n got %v\nwant %v", pred, enc, sel, data, got, want)
				}
				types.PutVecBatch(vb)
				filters++
			}
		}
	}
	for _, name := range names {
		vals := cols[name]
		col := &ColRef{Idx: 0, Name: name}
		for _, c := range consts {
			if !comparable(vals, c.K) {
				continue
			}
			for _, op := range ops {
				checkFilter(&BinOp{Op: op, L: col, R: &Const{D: c}}, [][]types.Datum{vals})
				if op == OpEq || op == OpLt || op == OpGe {
					checkFilter(&BinOp{Op: op, L: &Const{D: c}, R: col}, [][]types.Datum{vals})
				}
			}
			for _, hi := range []types.Datum{types.Null, types.NewInt32(30), types.NewDecimal(5, 3), types.NewFloat64(23.5),
				types.NewDate(9010), types.NewBool(true), types.NewString("b")} {
				if comparable(vals, hi.K) {
					checkFilter(&Between{E: col, Lo: &Const{D: c}, Hi: &Const{D: hi}}, [][]types.Datum{vals})
				}
			}
		}
		for _, other := range partners {
			if !eachPair(vals, cols[other], types.Comparable) {
				continue
			}
			for _, op := range ops {
				checkFilter(&BinOp{Op: op, L: col, R: &ColRef{Idx: 1, Name: other}}, [][]types.Datum{vals, cols[other]})
			}
		}
	}

	// LIKE and NOT LIKE over every column that holds only strings, bytes
	// and NULLs: typed, Mixed and all-NULL vectors.
	for _, name := range names {
		if !eachPair(cols[name], cols[name], func(a, _ types.Kind) bool { return a == types.KindString || a == types.KindBytes }) {
			continue
		}
		for _, pat := range likePatterns {
			for _, neg := range []bool{false, true} {
				checkFilter(&Like{E: &ColRef{Idx: 0, Name: name}, Pattern: pat, Negate: neg}, [][]types.Datum{cols[name]})
			}
		}
	}

	// Arithmetic: every pair of columns and constants types.arith takes.
	numeric := func(k types.Kind) bool {
		return k == types.KindInt32 || k == types.KindInt64 || k == types.KindDecimal || k == types.KindFloat64
	}
	defined := func(op BinOpKind) func(a, b types.Kind) bool {
		return func(a, b types.Kind) bool {
			if a == types.KindDate {
				return (b == types.KindInt32 || b == types.KindInt64) && (op == OpAdd || op == OpSub) || b == types.KindDate && op == OpSub
			}
			return numeric(a) && numeric(b)
		}
	}
	progs := 0
	checkProg := func(exprs []Expr, data [][]types.Datum) {
		for _, enc := range vecEncs {
			for _, sel := range testSels(n) {
				encs := make([]types.VecEnc, len(data))
				for j := range encs {
					encs[j] = enc
				}
				vb := testutil.VecBatch(data, encs)
				vb.Sel = sel
				p := CompileVec(exprs)
				// Twice: the second batch runs in the first one's scratch.
				for round := 0; round < 2; round++ {
					if err := p.Eval(vb); err != nil {
						t.Fatalf("%v: %v", exprs, err)
					}
					rows := selOf(vb)
					for i, e := range exprs {
						res := p.Result(i)
						if res.Enc != types.VecFlat || res.N != len(rows) {
							t.Fatalf("%s: result of %d rows, enc %d, want %d flat", e, res.N, res.Enc, len(rows))
						}
						for pos, r := range rows {
							want, err := e.Eval(rowAt(data, int(r)))
							if err != nil {
								t.Fatal(err)
							}
							if got := res.Datum(pos); string(types.EncodeDatum(nil, got)) != string(types.EncodeDatum(nil, want)) {
								t.Fatalf("%s enc %d sel %v row %d (%v): got %#v, want %#v", e, enc, sel, r, rowAt(data, int(r)), got, want)
							}
						}
					}
				}
				types.PutVecBatch(vb)
				progs++
			}
		}
	}
	// An operand is a column of the batch or a constant; values is what
	// it holds row by row.
	type operand struct {
		e      Expr
		values []types.Datum
	}
	var operands []operand
	for _, c := range consts {
		values := make([]types.Datum, n)
		for i := range values {
			values[i] = c
		}
		operands = append(operands, operand{&Const{D: c}, values})
	}
	colAt := map[string]int{}
	var data [][]types.Datum
	for _, name := range names {
		colAt[name] = len(data)
		data = append(data, cols[name])
		operands = append(operands, operand{&ColRef{Idx: colAt[name], Name: name}, cols[name]})
	}
	for _, l := range operands {
		for _, r := range operands {
			if c, isCol := r.e.(*ColRef); isCol && !slices.Contains(partners, c.Name) {
				continue
			}
			_, lc := l.e.(*Const)
			_, rc := r.e.(*Const)
			if lc && rc {
				continue
			}
			var exprs []Expr
			for _, op := range []BinOpKind{OpAdd, OpSub, OpMul, OpDiv} {
				if eachPair(l.values, r.values, defined(op)) {
					exprs = append(exprs, &BinOp{Op: op, L: l.e, R: r.e})
				}
			}
			if len(exprs) > 0 {
				checkProg(exprs, data)
			}
		}
	}
	// The Q1 shape: shared subtrees, constants on the left, three levels.
	price, disc, tax := &ColRef{Idx: colAt["dec2"], Name: "dec2"}, &ColRef{Idx: colAt["dec2?"], Name: "dec2?"}, &ColRef{Idx: colAt["dec4"], Name: "dec4"}
	one := &Const{D: types.NewInt64(1)}
	discounted := &BinOp{Op: OpMul, L: price, R: &BinOp{Op: OpSub, L: one, R: disc}}
	charged := &BinOp{Op: OpMul, L: discounted, R: &BinOp{Op: OpAdd, L: one, R: tax}}
	fn, err := NewFuncCall("abs", []Expr{disc})
	if err != nil {
		t.Fatal(err)
	}
	checkProg([]Expr{price, discounted, charged, discounted, one, &BinOp{Op: OpMul, L: fn, R: price},
		&Case{Whens: []When{{Cond: &BinOp{Op: OpGt, L: disc, R: one}, Result: price}}, Else: tax}}, data)
	if p := CompileVec([]Expr{discounted, charged}); len(p.nodes) != 8 {
		t.Errorf("l_extendedprice * (1 - l_discount) compiled %d nodes for two expressions that share it, want 8", len(p.nodes))
	}
	t.Logf("%d filters and %d programs checked", filters, progs)
}

// TestRowFallbackDemotesLate: a CASE whose arms are of different kinds
// is evaluated row by row into a builder, and the result turns Mixed at
// the first row of the second kind — here past row 64, with the only
// NULL at row 0, where the null bitmap being built stops short. A
// division over a column that changes scale late goes the same way.
func TestRowFallbackDemotesLate(t *testing.T) {
	const n = 130
	c, d, late := make([]types.Datum, n), make([]types.Datum, n), make([]types.Datum, n)
	for i := range c {
		c[i], d[i], late[i] = types.NewInt64(int64(i)), types.NewDecimal(int64(i*3), 2), types.NewDecimal(int64(i+1), 2)
	}
	late[0], late[n-1] = types.Null, types.NewDecimal(5, 1)
	data := [][]types.Datum{c, d, late}
	ci, di := &ColRef{Idx: 0, Name: "c"}, &ColRef{Idx: 1, Name: "d"}
	exprs := []Expr{
		&Case{Whens: []When{
			{Cond: &BinOp{Op: OpLt, L: ci, R: &Const{D: types.NewInt64(1)}}, Result: &Const{D: types.Null}},
			{Cond: &BinOp{Op: OpLt, L: ci, R: &Const{D: types.NewInt64(100)}}, Result: di},
		}, Else: ci},
		&BinOp{Op: OpDiv, L: &ColRef{Idx: 2, Name: "late"}, R: &Const{D: types.NewInt64(1)}},
		&BinOp{Op: OpAdd, L: &ColRef{Idx: 2, Name: "late"}, R: di},
	}
	for _, sel := range [][]int32{nil, testSels(n)[1]} {
		vb := testutil.VecBatch(data, []types.VecEnc{types.VecFlat, types.VecFlat, types.VecFlat})
		vb.Sel = sel
		p := CompileVec(exprs)
		if err := p.Eval(vb); err != nil {
			t.Fatal(err)
		}
		for i, e := range exprs {
			res := p.Result(i)
			for pos, r := range selOf(vb) {
				want, err := e.Eval(rowAt(data, int(r)))
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Datum(pos); string(types.EncodeDatum(nil, got)) != string(types.EncodeDatum(nil, want)) {
					t.Fatalf("%s sel %v row %d: got %#v, want %#v", e, sel != nil, r, got, want)
				}
			}
		}
		if sel == nil && !p.Result(0).Mixed {
			t.Error("a CASE over a decimal and an integer arm is not Mixed")
		}
		types.PutVecBatch(vb)
	}
}

// TestGroupAccMatchesAccumulator: folding a vector with AddVec gives
// every group what folding its rows one Add at a time gives, bit for
// bit, for every aggregate over every kind of column — including a
// running sum that changes kind midway and groups fed by two batches.
func TestGroupAccMatchesAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, groups = 200, 5
	names, cols := kernelColumns(rng, n)
	gids := make([]int32, n)
	for i := range gids {
		gids[i] = int32(rng.Intn(groups))
	}
	arg := &ColRef{Idx: 0}
	for _, name := range names {
		for _, spec := range []AggSpec{
			{Kind: AggCount, Arg: arg}, {Kind: AggCountStar}, {Kind: AggSum, Arg: arg}, {Kind: AggMin, Arg: arg},
			{Kind: AggMax, Arg: arg}, {Kind: AggAvg, Arg: arg},
		} {
			// SUM and AVG are defined over numbers, MIN and MAX over
			// values of one comparable class.
			numbers, class := true, true
			for _, d := range cols[name] {
				numbers = numbers && (d.IsNull() || types.Comparable(d.K, types.KindInt64))
				class = class && (d.IsNull() || types.Comparable(d.K, kindOf(cols[name])) || numbers)
			}
			if (spec.Kind == AggSum || spec.Kind == AggAvg) && !numbers || (spec.Kind == AggMin || spec.Kind == AggMax) && !class {
				continue
			}
			acc := NewGroupAcc(spec)
			acc.Grow(groups)
			want := make([]Accumulator, groups)
			for g := range want {
				want[g] = NewAccumulator(spec)
			}
			// Two batches, the second of another column of the same
			// name's family so a sum may meet a second kind.
			for _, vals := range [][]types.Datum{cols[name], cols[name][:n/2]} {
				v := testutil.Vector(types.VecFlat, vals)
				if spec.Kind == AggCountStar {
					acc.AddVec(gids[:len(vals)], nil)
				} else {
					acc.AddVec(gids[:len(vals)], &v)
				}
				for i, d := range vals {
					if spec.Kind == AggCountStar {
						d = types.NewInt64(1)
					}
					want[gids[i]].Add(d)
				}
			}
			for g := range want {
				got, w := acc.Result(int32(g)), want[g].Result()
				if string(types.EncodeDatum(nil, got)) != string(types.EncodeDatum(nil, w)) {
					t.Errorf("%s over %s group %d: AddVec %#v, Add %#v", spec, name, g, got, w)
				}
			}
		}
	}
}

// benchColumn returns n values of a kind that arrive sorted-ish, so that
// all three encodings make sense of them.
func benchColumn(kind string, n int) ([]types.Datum, types.Datum) {
	vals := make([]types.Datum, n)
	for i := range vals {
		x := int64(i / 64)
		switch kind {
		case "int":
			vals[i] = types.NewInt64(x)
		case "date":
			vals[i] = types.NewDate(int32(9000 + x))
		case "decimal":
			vals[i] = types.NewDecimal(x*100, 2)
		case "string":
			vals[i] = types.NewString(fmt.Sprintf("key%03d", x))
		}
	}
	return vals, vals[n/2]
}

// benchComments returns n comment-like texts that repeat in runs of 64,
// about one in three holding "special" before "requests".
func benchComments(n int) []types.Datum {
	words := []string{"quickly", "special", "final", "requests", "deposits", "among", "the", "carefully", "ironic", "packages"}
	vals := make([]types.Datum, n)
	for i := range vals {
		rng := rand.New(rand.NewSource(int64(i / 64)))
		var b strings.Builder
		for w := 0; w < 6+rng.Intn(6); w++ {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		vals[i] = types.NewString(b.String())
	}
	return vals
}

// BenchmarkVecFilter times one col < const kernel over 4 096 rows of
// each kind in each encoding, about half the rows passing, and the LIKE
// kernel over comment-like text with Q13's pattern.
func BenchmarkVecFilter(b *testing.B) {
	const n = 4096
	run := func(name string, vals []types.Datum, enc types.VecEnc, pred Expr) {
		want := len(wantSel(b, pred, [][]types.Datum{vals}, nil))
		b.Run(name, func(b *testing.B) {
			vb := testutil.VecBatch([][]types.Datum{vals}, []types.VecEnc{enc})
			defer types.PutVecBatch(vb)
			f := CompileFilter(pred)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vb.Sel = nil
				if err := f.Apply(vb); err != nil || vb.SelCount() != want {
					b.Fatalf("kept %d rows, want %d, err %v", vb.SelCount(), want, err)
				}
			}
		})
	}
	encs := []string{"flat", "rle", "dict"}
	for _, kind := range []string{"int", "date", "decimal", "string"} {
		vals, mid := benchColumn(kind, n)
		for i, enc := range encs {
			run(kind+"/"+enc, vals, vecEncs[i], &BinOp{Op: OpLt, L: &ColRef{Idx: 0}, R: &Const{D: mid}})
		}
	}
	comments := benchComments(n)
	for i, enc := range encs {
		run("like/"+enc, comments, vecEncs[i], &Like{E: &ColRef{Idx: 0}, Pattern: "%special%requests%"})
	}
}

// BenchmarkVecArith times l_extendedprice * (1 - l_discount) * (1 +
// l_tax) over 4 096 rows of decimals.
func BenchmarkVecArith(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	cols := make([][]types.Datum, 3)
	for j := range cols {
		cols[j] = make([]types.Datum, n)
		for i := range cols[j] {
			cols[j][i] = types.NewDecimal(rng.Int63n(10), 2)
		}
	}
	for i := range cols[0] {
		cols[0][i] = types.NewDecimal(90000+rng.Int63n(10000000), 2)
	}
	one := &Const{D: types.NewInt64(1)}
	e := &BinOp{Op: OpMul, L: &BinOp{Op: OpMul, L: &ColRef{Idx: 0}, R: &BinOp{Op: OpSub, L: one, R: &ColRef{Idx: 1}}},
		R: &BinOp{Op: OpAdd, L: one, R: &ColRef{Idx: 2}}}
	b.Run("decimal", func(b *testing.B) {
		vb := testutil.VecBatch(cols, []types.VecEnc{types.VecFlat, types.VecFlat, types.VecFlat})
		defer types.PutVecBatch(vb)
		p := CompileVec([]Expr{e})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Eval(vb); err != nil || p.Result(0).Kind != types.KindDecimal {
				b.Fatal(err)
			}
		}
	})
}

// TestKernelsTakeWhatTheyShould pins which shapes run as kernels and
// which are left to the row path, so that the differential test above
// cannot pass by never leaving the row path.
func TestKernelsTakeWhatTheyShould(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, cols := kernelColumns(rng, 32)
	for _, tc := range []struct {
		col    string
		val    types.Datum
		kernel bool
	}{
		{"int64", types.NewInt64(3), true}, {"int32?", types.NewDecimal(300, 2), true}, {"int64", types.NewDecimal(35, 1), false},
		{"int64", types.NewFloat64(3), false}, {"date", types.NewDate(9001), true}, {"bool", types.NewBool(true), true},
		{"dec2", types.NewInt64(24), true}, {"dec2?", types.NewDecimal(5, 1), true}, {"dec2", types.NewDecimal(5, 3), false},
		{"dec2", types.NewDecimal(500, 4), true}, {"dec2", types.NewDecimal(math.MaxInt64/10, 0), false},
		{"float", types.NewDecimal(2400, 2), true}, {"float?", types.NewFloat64(math.NaN()), true},
		{"string", types.NewBytes([]byte("a")), true}, {"scales", types.NewInt64(1), false}, {"dec2!", types.NewInt64(1), true},
	} {
		for _, enc := range vecEncs {
			vb := testutil.VecBatch([][]types.Datum{cols[tc.col]}, []types.VecEnc{enc})
			if got := cmpConst(vb, ColCmp{Col: 0, Op: OpLe, Val: tc.val}); got != tc.kernel {
				t.Errorf("%s <= %v (enc %d): kernel %v, want %v", tc.col, tc.val, enc, got, tc.kernel)
			}
			types.PutVecBatch(vb)
		}
	}
	// A column's LIKE is a kernel over a vector of one string kind; a
	// Mixed or all-NULL one is left to the row path.
	for _, tc := range []struct {
		col    string
		kernel bool
	}{
		{"string", true}, {"string?", true}, {"text", true}, {"bytea?", true}, {"strs", false}, {"text!", false},
	} {
		for _, enc := range vecEncs {
			vb := testutil.VecBatch([][]types.Datum{cols[tc.col]}, []types.VecEnc{enc})
			if got := likeCol(vb, 0, &Like{E: &ColRef{Idx: 0}, Pattern: "a%"}); got != tc.kernel {
				t.Errorf("%s LIKE 'a%%' (enc %d): kernel %v, want %v", tc.col, enc, got, tc.kernel)
			}
			types.PutVecBatch(vb)
		}
	}
	comment := &ColRef{Idx: 0, Name: "o_comment", K: types.KindString}
	if f := CompileFilter(&Like{E: comment, Pattern: "%special%requests%", Negate: true}); f.Residual() != nil || len(f.Cmps()) != 0 {
		t.Errorf("o_comment NOT LIKE '%%special%%requests%%': residual %v, zone-map comparisons %v", f.Residual(), f.Cmps())
	}
	upper, err := NewFuncCall("upper", []Expr{comment})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Expr{
		&Like{E: upper, Pattern: "%SPECIAL%"},
		NewBinOp(OpOr, &Like{E: comment, Pattern: "a%"}, NewBinOp(OpEq, comment, NewConst(types.NewString("b")))),
	} {
		if CompileFilter(e).Residual() == nil {
			t.Errorf("%s was taken by a kernel", e)
		}
	}
	for _, tc := range []struct {
		l, r   string
		kernel bool
	}{
		{"date", "date?", true}, {"int64", "int32?", true}, {"dec2", "dec2?", true}, {"dec2", "dec4", false},
		{"int64", "float", false}, {"float", "float?", true}, {"string", "string?", true}, {"scales", "dec2", false},
	} {
		vb := testutil.VecBatch([][]types.Datum{cols[tc.l], cols[tc.r]}, []types.VecEnc{types.VecFlat, types.VecFlat})
		if got := cmpCols(vb, 0, 1, OpLt); got != tc.kernel {
			t.Errorf("%s < %s: kernel %v, want %v", tc.l, tc.r, got, tc.kernel)
		}
		types.PutVecBatch(vb)
		vb = testutil.VecBatch([][]types.Datum{cols[tc.l], cols[tc.r]}, []types.VecEnc{types.VecFlat, types.VecDict})
		if cmpCols(vb, 0, 1, OpLt) {
			t.Errorf("%s < %s took a dictionary operand", tc.l, tc.r)
		}
		types.PutVecBatch(vb)
	}
	for _, tc := range []struct {
		l      string
		op     BinOpKind
		r      string
		kind   types.Kind
		scale  int8
		kernel bool
	}{
		{"int64", OpMul, "int32?", types.KindInt64, 0, true}, {"bigint", OpMul, "bigint", types.KindInt64, 0, true},
		{"dec2", OpAdd, "dec4", types.KindDecimal, 4, true}, {"dec2", OpMul, "dec4", types.KindDecimal, 6, true},
		{"dec4", OpMul, "dec5", 0, 0, false}, {"bigdec", OpMul, "bigdec", 0, 0, false}, {"dec2", OpSub, "int64", types.KindDecimal, 2, true},
		{"date", OpAdd, "int32", types.KindDate, 0, true}, {"date", OpSub, "date?", types.KindInt64, 0, true}, {"date", OpMul, "int64", 0, 0, false},
		{"float", OpMul, "dec2?", types.KindFloat64, 0, true}, {"int64", OpAdd, "float", types.KindFloat64, 0, true},
		{"scales", OpAdd, "dec2", 0, 0, false}, {"dec2!", OpAdd, "scales", types.KindNull, 0, true}, {"bool", OpAdd, "bool", 0, 0, false},
	} {
		vb := testutil.VecBatch([][]types.Datum{cols[tc.l], cols[tc.r]}, []types.VecEnc{types.VecFlat, types.VecRLE})
		p := CompileVec([]Expr{&BinOp{Op: tc.op, L: &ColRef{Idx: 0}, R: &ColRef{Idx: 1}}})
		p.rows = vb.Len()
		for i := range p.nodes[:2] {
			p.nodes[i].res = &p.nodes[i].out
			p.column(&p.nodes[i], vb)
		}
		n := &p.nodes[2]
		if got := p.arith(n); got != tc.kernel || got && (n.out.Kind != tc.kind || n.out.Scale != tc.scale || n.out.Mixed) {
			t.Errorf("%s %s %s: kernel %v of kind %s scale %d, want %v of %s scale %d", tc.l, tc.op, tc.r, got, n.out.Kind, n.out.Scale, tc.kernel, tc.kind, tc.scale)
		}
		types.PutVecBatch(vb)
	}
}
