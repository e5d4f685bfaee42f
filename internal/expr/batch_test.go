package expr

import (
	"reflect"
	"testing"

	"hawq/internal/testutil"
	"hawq/internal/types"
)

// kernelTestRows mixes kinds and NULLs to exercise both the vector
// kernels and their row-by-row fallbacks.
func kernelTestRows() []types.Row {
	return []types.Row{
		{types.NewInt64(1), types.NewInt64(10), types.NewString("a")},
		{types.NewInt64(2), types.Null, types.NewString("b")},
		{types.NewInt32(3), types.NewInt64(30), types.Null},
		{types.Null, types.NewInt64(40), types.NewString("d")},
		{types.NewInt64(5), types.NewInt32(50), types.NewString("e")},
	}
}

// vecBatchOf holds rows as flat vectors, one per column.
func vecBatchOf(rows []types.Row) *types.VecBatch {
	cols := make([][]types.Datum, len(rows[0]))
	encs := make([]types.VecEnc, len(cols))
	for j := range cols {
		for _, r := range rows {
			cols[j] = append(cols[j], r[j])
		}
	}
	return testutil.VecBatch(cols, encs)
}

// filterRowPath is the reference semantics filtering a batch must match.
func filterRowPath(t *testing.T, pred Expr, rows []types.Row) []types.Row {
	t.Helper()
	var out []types.Row
	for _, r := range rows {
		pass, err := EvalBool(pred, r)
		if err != nil {
			t.Fatal(err)
		}
		if pass {
			out = append(out, r)
		}
	}
	return out
}

// TestFilterBatchMatchesEvalBool: a batch filtered as vectors — the only
// compiled filter there is; the row-batch kernels this test was named for
// are gone and selectOp runs the plain loop that is the reference here —
// keeps the rows EvalBool passes, over columns of mixed kinds too.
func TestFilterBatchMatchesEvalBool(t *testing.T) {
	rows := kernelTestRows()
	col0 := &ColRef{Idx: 0, K: types.KindInt64}
	col1 := &ColRef{Idx: 1, K: types.KindInt64}
	preds := map[string]Expr{
		"kernel-gt":    NewBinOp(OpGt, col0, NewConst(types.NewInt64(2))),
		"kernel-le":    NewBinOp(OpLe, col0, NewConst(types.NewInt64(3))),
		"kernel-eq":    NewBinOp(OpEq, col1, NewConst(types.NewInt64(30))),
		"kernel-ne":    NewBinOp(OpNe, col0, NewConst(types.NewInt64(1))),
		"generic-cols": NewBinOp(OpLt, col0, col1),
		"generic-and": NewBinOp(OpAnd,
			NewBinOp(OpGt, col0, NewConst(types.NewInt64(0))),
			NewBinOp(OpLt, col1, NewConst(types.NewInt64(45)))),
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			want := filterRowPath(t, pred, rows)
			vb := vecBatchOf(rows)
			defer types.PutVecBatch(vb)
			if err := CompileFilter(pred).Apply(vb); err != nil {
				t.Fatal(err)
			}
			b := types.GetBatch(0)
			defer types.PutBatch(b)
			vb.Materialize(b, nil)
			if b.Len() != len(want) {
				t.Fatalf("kept %d rows, want %d", b.Len(), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(b.Row(i), want[i]) {
					t.Errorf("row %d = %v, want %v", i, b.Row(i), want[i])
				}
			}
		})
	}
}

// TestProjectBatchMatchesEval: expressions computed over a batch as
// vectors, by kernel or row by row, are what Eval computes a row at a
// time, which is all projectOp does.
func TestProjectBatchMatchesEval(t *testing.T) {
	rows := kernelTestRows()
	col0 := &ColRef{Idx: 0, K: types.KindInt64}
	col1 := &ColRef{Idx: 1, K: types.KindInt64}
	col2 := &ColRef{Idx: 2, K: types.KindString}
	exprSets := map[string][]Expr{
		"kernel-copy-const": {col0, NewConst(types.NewInt64(7)), col2},
		"kernel-arith":      {NewBinOp(OpAdd, col0, col1), NewBinOp(OpMul, col1, NewConst(types.NewInt64(2))), NewBinOp(OpSub, NewConst(types.NewInt64(100)), col0)},
		"kernel-div":        {NewBinOp(OpDiv, col1, col0), NewBinOp(OpDiv, col1, NewConst(types.NewInt64(0)))},
		"generic-concat":    {NewBinOp(OpConcat, col2, NewConst(types.NewString("!")))},
	}
	for name, exprs := range exprSets {
		t.Run(name, func(t *testing.T) {
			vb := vecBatchOf(rows)
			defer types.PutVecBatch(vb)
			prog := CompileVec(exprs)
			if err := prog.Eval(vb); err != nil {
				t.Fatal(err)
			}
			for j, e := range exprs {
				got := testutil.VectorRows(prog.Result(j))
				if len(got) != len(rows) {
					t.Fatalf("col %d: projected %d rows", j, len(got))
				}
				for i, r := range rows {
					want, err := e.Eval(r)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("row %d col %d = %v, want %v", i, j, got[i], want)
					}
				}
			}
		})
	}
}

// TestBatchKernelsOutOfRangeColumn: a column the row does not have is an
// error of Eval, whatever loop calls it.
func TestBatchKernelsOutOfRangeColumn(t *testing.T) {
	row := types.Row{types.NewInt64(1)}
	bad := &ColRef{Idx: 5, K: types.KindInt64}
	// The error is reported, not a panic or a silent pass.
	if _, err := EvalBool(NewBinOp(OpGt, bad, NewConst(types.NewInt64(0))), row); err == nil {
		t.Error("filter on out-of-range column accepted")
	}
	if _, err := bad.Eval(row); err == nil {
		t.Error("projection of out-of-range column accepted")
	}
	if _, err := NewBinOp(OpAdd, bad, NewConst(types.NewInt64(1))).Eval(row); err == nil {
		t.Error("arithmetic on out-of-range column accepted")
	}
}
