package expr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hawq/internal/types"
)

// buildVecBatch encodes the column-major values into one VecBatch,
// choosing the per-column encoding by colEnc[j].
func buildVecBatch(cols [][]types.Datum, colEnc []types.VecEnc) *types.VecBatch {
	n := len(cols[0])
	vb := types.GetVecBatch(len(cols))
	vb.SetLen(n)
	for j, vals := range cols {
		v := &vb.Cols[j]
		v.N = n
		switch colEnc[j] {
		case types.VecFlat:
			v.Enc = types.VecFlat
			v.Values = append(v.Values, vals...)
		case types.VecRaw:
			v.Enc = types.VecRaw
			var raw []byte
			for _, d := range vals {
				raw = types.EncodeDatum(raw, d)
			}
			v.Raw = raw
		case types.VecRLE:
			v.Enc = types.VecRLE
			for i := 0; i < n; i++ {
				if len(v.Values) > 0 && vals[i] == v.Values[len(v.Values)-1] {
					v.Runs[len(v.Runs)-1]++
					continue
				}
				v.Values = append(v.Values, vals[i])
				v.Runs = append(v.Runs, 1)
			}
		case types.VecDict:
			v.Enc = types.VecDict
			index := map[types.Datum]int32{}
			for _, d := range vals {
				c, ok := index[d]
				if !ok {
					c = int32(len(v.Values))
					index[d] = c
					v.Values = append(v.Values, d)
				}
				v.Codes = append(v.Codes, c)
			}
		}
	}
	return vb
}

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

// TestFilterVecMatchesFilterBatch is the property test: for random
// batches, random per-column encodings, and random conjunctions of
// kernelizable predicates, filtering in the encoded domain then
// materializing must be byte-identical to materializing then running
// the decoded-path FilterBatch.
func TestFilterVecMatchesFilterBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	encs := []types.VecEnc{types.VecFlat, types.VecRaw, types.VecRLE, types.VecDict}
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
			colEnc[j] = encs[rng.Intn(len(encs))]
			if colEnc[j] == types.VecRLE {
				// RLE requires comparable adjacent values; any column
				// works, runs may just be length 1.
				continue
			}
		}
		// Build a conjunction of up to 3 kernelizable predicates over
		// class-homogeneous columns (types.Compare panics across
		// classes, and the planner never emits such comparisons).
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
					if !d.IsNull() && !sameCompareClass(d.K, want.K) {
						ok = false
						break
					}
				}
				if !ok {
					continue // fewer conjuncts this trial
				}
			}
			c := &BinOp{Op: op, L: &ColRef{Idx: col}, R: &Const{D: want}}
			if pred == nil {
				pred = c
			} else {
				pred = &BinOp{Op: OpAnd, L: pred, R: c}
			}
		}
		if pred == nil {
			continue
		}

		// Reference: materialize everything, then FilterBatch.
		vbRef := buildVecBatch(cols, colEnc)
		ref := types.GetBatch(0)
		if err := vbRef.Materialize(ref); err != nil {
			t.Fatal(err)
		}
		types.PutVecBatch(vbRef)
		if err := FilterBatch(pred, ref); err != nil {
			t.Fatal(err)
		}

		// Encoded path: FilterVec then materialize survivors.
		vb := buildVecBatch(cols, colEnc)
		residual, err := FilterVec(pred, vb)
		if err != nil {
			t.Fatal(err)
		}
		if residual != nil {
			t.Fatalf("trial %d: kernelizable predicate left residual %v", trial, residual)
		}
		got := types.GetBatch(0)
		if err := vb.Materialize(got); err != nil {
			t.Fatal(err)
		}
		types.PutVecBatch(vb)

		if got.Len() != ref.Len() {
			t.Fatalf("trial %d (enc %v): vec path kept %d rows, decoded path %d", trial, colEnc, got.Len(), ref.Len())
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

// sameCompareClass mirrors types.Compare's comparability classes.
func sameCompareClass(a, b types.Kind) bool {
	num := func(k types.Kind) bool {
		return k == types.KindInt32 || k == types.KindInt64 || k == types.KindFloat64 || k == types.KindDecimal
	}
	str := func(k types.Kind) bool { return k == types.KindString || k == types.KindBytes }
	switch {
	case num(a) && num(b), str(a) && str(b):
		return true
	default:
		return a == b
	}
}

// TestFilterVecResidual checks non-kernelizable conjuncts come back as
// the residual while kernelizable ones are consumed.
func TestFilterVecResidual(t *testing.T) {
	cols := [][]types.Datum{{types.NewInt64(1), types.NewInt64(2), types.NewInt64(3)}}
	vb := buildVecBatch(cols, []types.VecEnc{types.VecFlat})
	defer types.PutVecBatch(vb)
	kernel := &BinOp{Op: OpGt, L: &ColRef{Idx: 0}, R: &Const{D: types.NewInt64(1)}}
	// col+0 > 1 has a non-Const/non-ColRef shape on the left: residual.
	hard := &BinOp{Op: OpGt, L: &BinOp{Op: OpAdd, L: &ColRef{Idx: 0}, R: &Const{D: types.NewInt64(0)}}, R: &Const{D: types.NewInt64(1)}}
	residual, err := FilterVec(&BinOp{Op: OpAnd, L: kernel, R: hard}, vb)
	if err != nil {
		t.Fatal(err)
	}
	if residual == nil {
		t.Fatal("non-kernelizable conjunct was not returned as residual")
	}
	if got := vb.SelCount(); got != 2 {
		t.Fatalf("kernel conjunct kept %d rows, want 2", got)
	}
	if VecFilterable(kernel, 1) == false {
		t.Error("kernel shape reported unfilterable")
	}
	if VecFilterable(hard, 1) {
		t.Error("hard shape reported filterable")
	}
	if !VecFilterable(nil, 0) {
		t.Error("nil predicate should be filterable")
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
// is — `col = $1` narrows the selection in FilterVec and compacts in
// FilterBatch without a residual — while an unbound or NULL-bound
// placeholder is left to the generic path, which still answers as SQL
// says: NULL keeps no row, unbound is the protocol error.
func TestBoundParamIsAConstant(t *testing.T) {
	day := types.MustParseDate("1995-03-15")
	cols := [][]types.Datum{
		{types.NewInt64(1), types.NewInt64(2), types.NewInt64(2), types.Null},
		{types.NewString("a"), types.NewString("b"), types.NewString("a"), types.NewString("b")},
		{day, types.NewDate(0), day, types.Null},
	}
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
		if VecFilterable(pred, 3) || filterKernel(pred) != nil {
			t.Fatalf("col %d: unbound parameter was kernelized", j)
		}
		if err := BindParams(pred, []types.Datum{tc.val}); err != nil {
			t.Fatal(err)
		}
		if !VecFilterable(pred, 3) || filterKernel(pred) == nil {
			t.Fatalf("col %d: bound %v parameter is not kernelized", j, tc.val.K)
		}
		vb := buildVecBatch(cols, []types.VecEnc{types.VecFlat, types.VecDict, types.VecRaw})
		residual, err := FilterVec(pred, vb)
		if err != nil || residual != nil || !reflect.DeepEqual(vb.Sel, tc.want) {
			t.Fatalf("col %d: FilterVec sel %v residual %v err %v, want %v", j, vb.Sel, residual, err, tc.want)
		}
		types.PutVecBatch(vb)
	}
	// NULL-bound: not kernelized, and the generic path keeps nothing.
	pred := &BinOp{Op: OpEq, L: &ColRef{Idx: 0}, R: &Param{Idx: 0, K: types.KindInt64}}
	if err := BindParams(pred, []types.Datum{types.Null}); err != nil {
		t.Fatal(err)
	}
	if VecFilterable(pred, 3) || filterKernel(pred) != nil {
		t.Fatal("NULL-bound parameter was kernelized")
	}
	vb := buildVecBatch(cols, []types.VecEnc{types.VecFlat, types.VecFlat, types.VecFlat})
	defer types.PutVecBatch(vb)
	residual, err := FilterVec(pred, vb)
	if err != nil || residual == nil {
		t.Fatalf("NULL-bound: residual %v err %v", residual, err)
	}
	b := types.GetBatch(0)
	defer types.PutBatch(b)
	if err := vb.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if err := FilterBatch(residual, b); err != nil || b.Len() != 0 {
		t.Fatalf("col = NULL kept %d rows, err %v", b.Len(), err)
	}
	// Unbound: the generic path reports it.
	unbound := &BinOp{Op: OpEq, L: &ColRef{Idx: 0}, R: &Param{Idx: 0, K: types.KindInt64}}
	if err := vb.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if err := FilterBatch(unbound, b); err == nil {
		t.Fatal("unbound parameter evaluated")
	}
}
