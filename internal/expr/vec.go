package expr

import (
	"fmt"

	"hawq/internal/types"
)

// Conjuncts appends the AND-conjuncts of e to dst: the predicate
// decomposition the encoded-vector kernels (and zone-map extraction)
// work one conjunct at a time.
func Conjuncts(e Expr, dst []Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == OpAnd {
		dst = Conjuncts(b.L, dst)
		return Conjuncts(b.R, dst)
	}
	return append(dst, e)
}

// AndAll rebuilds a predicate from conjuncts (nil for none).
func AndAll(conjuncts []Expr) Expr {
	var out Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = &BinOp{Op: OpAnd, L: out, R: c}
		}
	}
	return out
}

// ConstOperand returns the value of an operand that is fixed for the
// whole execution: a literal, or a $n placeholder that has been bound.
// A prepared statement's plan is the statement's own clone and is bound
// before the executor sees it, so to a kernel or a zone map `col = $1`
// is `col = 42`. NULL (as a literal or a binding) and an unbound
// placeholder report false: no comparison kernel handles them.
func ConstOperand(e Expr) (types.Datum, bool) {
	switch v := e.(type) {
	case *Const:
		return v.D, !v.D.IsNull()
	case *Param:
		return v.V, v.Bound && !v.V.IsNull()
	}
	return types.Null, false
}

// vecPred is one compiled kernelizable conjunct: <ColRef> <comparison>
// <non-NULL constant operand>, the same shape filterKernel vectorizes
// on decoded batches.
type vecPred struct {
	col  int
	op   BinOpKind
	want types.Datum
}

// compileVecPred extracts the kernelizable shape from one conjunct.
func compileVecPred(e Expr) (vecPred, bool) {
	bo, ok := e.(*BinOp)
	if !ok || !bo.Op.IsComparison() {
		return vecPred{}, false
	}
	col, ok := bo.L.(*ColRef)
	if !ok {
		return vecPred{}, false
	}
	want, ok := ConstOperand(bo.R)
	if !ok {
		return vecPred{}, false
	}
	return vecPred{col: col.Idx, op: bo.Op, want: want}, true
}

// VecFilterable reports whether every conjunct of pred has the
// kernelizable shape over the first width columns — i.e. FilterVec will
// consume the whole predicate and never leave a residual. A nil pred is
// trivially filterable.
func VecFilterable(pred Expr, width int) bool {
	if pred == nil {
		return true
	}
	for _, c := range Conjuncts(pred, nil) {
		p, ok := compileVecPred(c)
		if !ok || p.col >= width {
			return false
		}
	}
	return true
}

// cmpPass evaluates d <op> want with SQL comparison semantics (NULL
// filters out), sharing the int64 fast path with filterKernel.
func cmpPass(d types.Datum, op BinOpKind, want types.Datum) bool {
	if d.IsNull() {
		return false
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
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// FilterVec applies pred's kernelizable conjuncts directly to the
// encoded columns of vb, narrowing vb.Sel in place. Predicates on
// run-length pages evaluate once per run, on dictionary pages once per
// dictionary entry, on flat pages once per row; raw (undecoded) pages
// decode one column value at a time, stepping over rows the selection
// has already killed without allocating. Conjuncts FilterVec cannot
// vectorize are returned as the residual predicate the caller must
// evaluate after materializing.
func FilterVec(pred Expr, vb *types.VecBatch) (Expr, error) {
	if pred == nil {
		return nil, nil
	}
	var residual []Expr
	for _, conj := range Conjuncts(pred, nil) {
		p, ok := compileVecPred(conj)
		if !ok || p.col >= len(vb.Cols) {
			residual = append(residual, conj)
			continue
		}
		if vb.SelCount() == 0 {
			// Already empty: later conjuncts cannot revive rows, but
			// non-kernel conjuncts must still be reported as residual
			// for shape consistency. Kernel ones are trivially done.
			continue
		}
		if err := applyVecPred(&vb.Cols[p.col], p, vb); err != nil {
			return nil, err
		}
	}
	return AndAll(residual), nil
}

// applyVecPred narrows vb.Sel to the rows of v passing p.
func applyVecPred(v *types.Vector, p vecPred, vb *types.VecBatch) error {
	n := vb.Len()
	sel := vb.Sel
	var out []int32
	switch v.Enc {
	case types.VecDict:
		// One comparison per dictionary entry, then a code lookup per
		// row.
		pass := make([]bool, len(v.Values))
		for i, d := range v.Values {
			pass[i] = cmpPass(d, p.op, p.want)
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				if pass[v.Codes[i]] {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, ri := range sel {
				if pass[v.Codes[ri]] {
					out = append(out, ri)
				}
			}
		}
	case types.VecRLE:
		// One comparison per run, then run arithmetic over the
		// (sorted) selection.
		if sel == nil {
			i := int32(0)
			for k, run := range v.Runs {
				if cmpPass(v.Values[k], p.op, p.want) {
					for r := int32(0); r < run; r++ {
						out = append(out, i+r)
					}
				}
				i += run
			}
		} else {
			if len(v.Runs) == 0 {
				return fmt.Errorf("expr: non-empty selection over empty RLE vector")
			}
			k, runEnd := 0, v.Runs[0]
			// Evaluate each run's verdict lazily as the walk reaches it.
			verdict := cmpPass(v.Values[0], p.op, p.want)
			for _, ri := range sel {
				for k < len(v.Runs) && ri >= runEnd {
					k++
					if k < len(v.Runs) {
						runEnd += v.Runs[k]
						verdict = cmpPass(v.Values[k], p.op, p.want)
					}
				}
				if k >= len(v.Runs) {
					return fmt.Errorf("expr: selection index %d beyond RLE runs (%d rows)", ri, v.N)
				}
				if verdict {
					out = append(out, ri)
				}
			}
		}
	case types.VecFlat:
		if sel == nil {
			for i := 0; i < n; i++ {
				if cmpPass(v.Values[i], p.op, p.want) {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, ri := range sel {
				if cmpPass(v.Values[ri], p.op, p.want) {
					out = append(out, ri)
				}
			}
		}
	case types.VecRaw:
		// Walk the undecoded stream once, skipping rows the selection
		// already killed without materializing them.
		pos, next := 0, 0
		decodeAt := func(ri int32) (types.Datum, error) {
			for int32(next) < ri {
				sz, err := types.SkipDatum(v.Raw[pos:])
				if err != nil {
					return types.Null, err
				}
				pos += sz
				next++
			}
			d, sz, err := types.DecodeDatum(v.Raw[pos:])
			if err != nil {
				return types.Null, err
			}
			pos += sz
			next++
			return d, nil
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				d, err := decodeAt(int32(i))
				if err != nil {
					return err
				}
				if cmpPass(d, p.op, p.want) {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, ri := range sel {
				d, err := decodeAt(ri)
				if err != nil {
					return err
				}
				if cmpPass(d, p.op, p.want) {
					out = append(out, ri)
				}
			}
		}
	default:
		return fmt.Errorf("expr: filter over bad vector encoding %d", v.Enc)
	}
	if out == nil {
		out = []int32{}
	}
	vb.Sel = out
	return nil
}
