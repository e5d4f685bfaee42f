package expr

import (
	"hawq/internal/types"
)

// FilterBatch evaluates pred over every row of b and compacts b in place
// to the rows where the predicate is true (NULL counts as false, as in
// SQL WHERE). Surviving rows keep their relative order. The common
// pattern <col> <cmp> <literal> runs through a vectorized kernel that
// skips per-row expression dispatch.
func FilterBatch(pred Expr, b *types.Batch) error {
	if k := filterKernel(pred); k != nil && k(b) {
		return nil
	}
	k := 0
	for i := 0; i < b.Len(); i++ {
		pass, err := EvalBool(pred, b.Row(i))
		if err != nil {
			return err
		}
		if pass {
			b.MoveRow(k, i)
			k++
		}
	}
	b.Truncate(k)
	return nil
}

// filterKernel compiles the pattern <ColRef> <comparison> <non-null
// operand fixed for the execution> into an in-place compaction loop. The returned
// kernel reports whether it handled the batch (false sends the caller
// to the generic path, e.g. on a column index beyond the batch width).
// nil means the predicate doesn't match the pattern.
func filterKernel(pred Expr) func(*types.Batch) bool {
	bo, ok := pred.(*BinOp)
	if !ok || !bo.Op.IsComparison() {
		return nil
	}
	col, ok := bo.L.(*ColRef)
	if !ok {
		return nil
	}
	want, ok := ExecConst(bo.R)
	if !ok || want.IsNull() {
		return nil
	}
	op := bo.Op
	return func(b *types.Batch) bool {
		if col.Idx >= b.Width() {
			return false
		}
		k := 0
		n := b.Len()
		for i := 0; i < n; i++ {
			d := b.Row(i)[col.Idx]
			if d.IsNull() {
				// NULL comparison is NULL, which filters out.
				continue
			}
			var c int
			if d.K == types.KindInt64 && want.K == types.KindInt64 {
				switch {
				case d.I < want.I:
					c = -1
				case d.I > want.I:
					c = 1
				}
			} else {
				c = types.Compare(d, want)
			}
			var pass bool
			switch op {
			case OpEq:
				pass = c == 0
			case OpNe:
				pass = c != 0
			case OpLt:
				pass = c < 0
			case OpLe:
				pass = c <= 0
			case OpGt:
				pass = c > 0
			case OpGe:
				pass = c >= 0
			}
			if pass {
				b.MoveRow(k, i)
				k++
			}
		}
		b.Truncate(k)
		return true
	}
}

// ProjectBatch evaluates exprs over every row of in, writing the results
// into out (which is reset to width len(exprs) first). in and out must
// be distinct batches. Column copies, literals, and simple arithmetic
// over columns and literals run through vectorized kernels, one output
// column at a time; anything else falls back to per-row Eval.
func ProjectBatch(exprs []Expr, in, out *types.Batch) error {
	out.Reset(len(exprs))
	out.Extend(in.Len())
	for j, e := range exprs {
		if k := projectKernel(e); k != nil && k(in, out, j) {
			continue
		}
		for i := 0; i < in.Len(); i++ {
			v, err := e.Eval(in.Row(i))
			if err != nil {
				return err
			}
			out.Row(i)[j] = v
		}
	}
	return nil
}

// batchOperand is a compiled ColRef or Const operand of an arithmetic
// kernel: either a column index or an inline literal.
type batchOperand struct {
	col int // -1 when the operand is the literal d
	d   types.Datum
}

func compileOperand(e Expr) (batchOperand, bool) {
	switch v := e.(type) {
	case *ColRef:
		return batchOperand{col: v.Idx}, true
	case *Const:
		return batchOperand{col: -1, d: v.D}, true
	}
	return batchOperand{}, false
}

// projectKernel compiles one projection expression into a column-wise
// loop over the batch, or nil when the expression shape isn't covered.
// A kernel returning false (column out of range) sends the caller to
// the generic per-row path for its error reporting.
func projectKernel(e Expr) func(in, out *types.Batch, j int) bool {
	switch v := e.(type) {
	case *ColRef:
		idx := v.Idx
		return func(in, out *types.Batch, j int) bool {
			if idx >= in.Width() {
				return false
			}
			for i, n := 0, in.Len(); i < n; i++ {
				out.Row(i)[j] = in.Row(i)[idx]
			}
			return true
		}
	case *Const:
		d := v.D
		return func(in, out *types.Batch, j int) bool {
			for i, n := 0, in.Len(); i < n; i++ {
				out.Row(i)[j] = d
			}
			return true
		}
	case *BinOp:
		var f func(a, b types.Datum) types.Datum
		switch v.Op {
		case OpAdd:
			f = types.Add
		case OpSub:
			f = types.Sub
		case OpMul:
			f = types.Mul
		case OpDiv:
			f = types.Div
		default:
			return nil
		}
		op := v.Op
		l, lok := compileOperand(v.L)
		r, rok := compileOperand(v.R)
		if !lok || !rok {
			return nil
		}
		return func(in, out *types.Batch, j int) bool {
			if l.col >= in.Width() || r.col >= in.Width() {
				return false
			}
			for i, n := 0, in.Len(); i < n; i++ {
				row := in.Row(i)
				ld, rd := l.d, r.d
				if l.col >= 0 {
					ld = row[l.col]
				}
				if r.col >= 0 {
					rd = row[r.col]
				}
				if ld.K == types.KindInt64 && rd.K == types.KindInt64 && op != OpDiv {
					// Matches types.arith's pure-integer branch without
					// the kind dispatch.
					var x int64
					switch op {
					case OpAdd:
						x = ld.I + rd.I
					case OpSub:
						x = ld.I - rd.I
					case OpMul:
						x = ld.I * rd.I
					}
					out.Row(i)[j] = types.NewInt64(x)
				} else {
					out.Row(i)[j] = f(ld, rd)
				}
			}
			return true
		}
	}
	return nil
}
