package expr

import (
	"hawq/internal/types"
)

// Conjuncts appends the AND-conjuncts of e to dst: the predicate
// decomposition the vector filter (and zone-map extraction) work one
// conjunct at a time.
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

// ExecConst evaluates e when nothing in it varies by row — no column
// reference, no unbound $n — to the value it has for the whole
// execution: a literal, a bound placeholder, current_date once the
// query's clock is bound, and anything computed from those. An operator
// calls it as it is built, so such a subtree costs one evaluation per
// execution instead of one per row. The binder's Fold is the plan-time
// half, and stricter: what it leaves is what must wait for execution.
func ExecConst(e Expr) (types.Datum, bool) {
	switch v := e.(type) {
	case *Const:
		return v.D, true
	case *Param:
		return v.V, v.Bound
	}
	fixed := true
	Walk(e, func(x Expr) {
		switch v := x.(type) {
		case *ColRef:
			fixed = false
		case *Param:
			fixed = fixed && v.Bound
		}
	})
	if !fixed {
		return types.Null, false
	}
	d, err := e.Eval(nil)
	return d, err == nil
}

// ColCmp is a comparison of a column with a non-NULL value fixed for
// the execution: the shape a filter kernel and a zone map consume.
type ColCmp struct {
	Col int
	Op  BinOpKind
	Val types.Datum
}

// commuted maps a comparison onto the one with its operands swapped.
var commuted = [...]BinOpKind{OpEq: OpEq, OpNe: OpNe, OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe}

// colCmps appends the column-against-constant comparisons the conjunct
// e amounts to — col ⋄ const, const ⋄ col (commuted), col BETWEEN lo AND
// hi (two) — and reports false for any other shape. A NULL constant is
// another shape: no row passes it, and the row path says so.
func colCmps(e Expr, dst []ColCmp) ([]ColCmp, bool) {
	fixed := func(e Expr) (types.Datum, bool) {
		d, ok := ExecConst(e)
		return d, ok && !d.IsNull()
	}
	switch v := e.(type) {
	case *BinOp:
		if !v.Op.IsComparison() {
			return dst, false
		}
		if col, ok := v.L.(*ColRef); ok {
			if val, ok := fixed(v.R); ok {
				return append(dst, ColCmp{col.Idx, v.Op, val}), true
			}
		}
		if col, ok := v.R.(*ColRef); ok {
			if val, ok := fixed(v.L); ok {
				return append(dst, ColCmp{col.Idx, commuted[v.Op], val}), true
			}
		}
	case *Between:
		col, ok := v.E.(*ColRef)
		if !ok || v.Negate {
			return dst, false
		}
		lo, okLo := fixed(v.Lo)
		hi, okHi := fixed(v.Hi)
		if okLo && okHi {
			return append(dst, ColCmp{col.Idx, OpGe, lo}, ColCmp{col.Idx, OpLe, hi}), true
		}
	}
	return dst, false
}

// filterStep is one kernel of a compiled filter: a column against a
// constant (r < 0) or against another column.
type filterStep struct {
	cmp ColCmp
	r   int
	// e is the comparison as an expression, for the batch whose vectors
	// the kernel cannot take; a comparison with a constant builds it
	// when that batch comes.
	e Expr
}

// VecFilter is a predicate compiled once per operator to run over vec
// batches. Conjuncts that compare a column with a constant or with
// another column are kernels: tight loops over the typed entries of a
// flat vector, one verdict per run or per dictionary entry otherwise.
// Every other conjunct (OR, LIKE, IN, CASE, IS NULL, builtins over
// columns), and a kernel conjunct on a batch whose vectors are not of
// the kinds the kernel was built for, is evaluated row by row over the
// rows the kernels left, through a scratch Row. Nothing is materialized
// either way. A VecFilter holds scratch and serves one goroutine.
type VecFilter struct {
	steps    []filterStep
	residual Expr
	resCols  []int
	rr       types.RowReader
}

// CompileFilter compiles pred (nil: every row passes).
func CompileFilter(pred Expr) *VecFilter {
	f := &VecFilter{}
	if pred == nil {
		return f
	}
	var rest []Expr
	var cmps []ColCmp
	for _, c := range Conjuncts(pred, nil) {
		var ok bool
		if cmps, ok = colCmps(c, cmps[:0]); ok {
			for _, cmp := range cmps {
				f.steps = append(f.steps, filterStep{cmp: cmp, r: -1})
			}
			continue
		}
		if bo, ok := c.(*BinOp); ok && bo.Op.IsComparison() {
			l, lok := bo.L.(*ColRef)
			r, rok := bo.R.(*ColRef)
			if lok && rok {
				f.steps = append(f.steps, filterStep{cmp: ColCmp{Col: l.Idx, Op: bo.Op}, r: r.Idx, e: c})
				continue
			}
		}
		rest = append(rest, c)
	}
	f.residual = AndAll(rest)
	f.resCols = refCols(f.residual)
	return f
}

// Cmps returns the predicate's comparisons of a column with a constant,
// every one of which a passing row satisfies: what a zone map can refute
// for a whole page.
func (f *VecFilter) Cmps() []ColCmp {
	var out []ColCmp
	for _, st := range f.steps {
		if st.r < 0 {
			out = append(out, st.cmp)
		}
	}
	return out
}

// Residual returns the conjuncts no kernel covers (nil when the kernels
// consume the whole predicate).
func (f *VecFilter) Residual() Expr { return f.residual }

// refCols lists the columns e reads.
func refCols(e Expr) []int {
	var cols []int
	Walk(e, func(x Expr) {
		if c, ok := x.(*ColRef); ok {
			cols = append(cols, c.Idx)
		}
	})
	return cols
}

// Apply narrows vb.Sel to the rows that pass the predicate.
func (f *VecFilter) Apply(vb *types.VecBatch) error {
	for i := range f.steps {
		if vb.SelCount() == 0 {
			return nil
		}
		st := &f.steps[i]
		if st.cmp.Col < len(vb.Cols) && st.r < len(vb.Cols) {
			if st.r < 0 && cmpConst(vb, st.cmp) || st.r >= 0 && cmpCols(vb, st.cmp.Col, st.r, st.cmp.Op) {
				continue
			}
		}
		if st.e == nil {
			st.e = &BinOp{Op: st.cmp.Op, L: &ColRef{Idx: st.cmp.Col}, R: &Const{D: st.cmp.Val}}
		}
		if err := f.filterRows(vb, st.e, []int{st.cmp.Col, max(st.r, st.cmp.Col)}); err != nil {
			return err
		}
	}
	if f.residual == nil || vb.SelCount() == 0 {
		return nil
	}
	return f.filterRows(vb, f.residual, f.resCols)
}

// filterRows keeps the surviving rows for which e is true, evaluating
// it over a scratch row that holds the columns e reads.
func (f *VecFilter) filterRows(vb *types.VecBatch, e Expr, cols []int) error {
	f.rr.Reset(vb, cols)
	out := vb.SelOut()
	for i, m := 0, vb.SelCount(); i < m; i++ {
		pass, err := EvalBool(e, f.rr.Row(i))
		if err != nil {
			return err
		}
		if pass {
			ri := int32(i)
			if vb.Sel != nil {
				ri = vb.Sel[i]
			}
			out = append(out, ri)
		}
	}
	vb.SetSel(out)
	return nil
}

// The three outcomes of comparing x with k, as the bits of a mask a
// comparison operator selects from.
const (
	ordLt = 1 << iota
	ordEq
	ordGt
)

// opMask lists the outcomes that satisfy each comparison.
var opMask = [...]uint8{
	OpEq: ordEq, OpNe: ordLt | ordGt, OpLt: ordLt, OpLe: ordLt | ordEq, OpGt: ordGt, OpGe: ordGt | ordEq,
}

// ord compares like types.Compare does within a class: a NaN is neither
// below nor above anything, so it comes out equal.
func ord[T int64 | float64 | string](x, k T) uint8 {
	if x < k {
		return ordLt
	}
	if x > k {
		return ordGt
	}
	return ordEq
}

// cmpConst runs the kernel of column ⋄ constant and reports false when
// there is none for the column's vector in this batch: a Mixed vector,
// a decimal constant that has no exact value at the column's scale, a
// float against integers.
func cmpConst(vb *types.VecBatch, c ColCmp) bool {
	v := &vb.Cols[c.Col]
	mask := opMask[c.Op]
	switch v.Class() {
	case types.ClassNull:
		vb.Sel = vb.SelOut()
		return true
	case types.ClassInt:
		if !types.Comparable(v.Kind, c.Val.K) {
			return false
		}
		k := c.Val.I
		if v.Kind != types.KindDate && v.Kind != types.KindBool {
			scale := v.Scale
			if v.Kind != types.KindDecimal {
				scale = 0
			}
			var ok bool
			if k, ok = c.Val.UnscaledAt(scale); !ok {
				return false
			}
		}
		cmpEntries(vb, c.Col, v.Ints, mask, k)
	case types.ClassFloat:
		if !types.Comparable(types.KindFloat64, c.Val.K) {
			return false
		}
		cmpEntries(vb, c.Col, v.Floats, mask, c.Val.Float())
	case types.ClassStr:
		if !types.Comparable(v.Kind, c.Val.K) {
			return false
		}
		vb.Narrow(c.Col, func(e int) bool { return !v.Null(e) && mask&ord(v.Text(e), c.Val.S) != 0 })
	default:
		return false
	}
	return true
}

// cmpEntries narrows the selection to the rows whose entry in vals, the
// typed storage of column col, compares with k as mask asks: one loop
// over a flat vector, one verdict per entry otherwise.
func cmpEntries[T int64 | float64](vb *types.VecBatch, col int, vals []T, mask uint8, k T) {
	v := &vb.Cols[col]
	if v.Enc != types.VecFlat {
		vb.Narrow(col, func(e int) bool { return !v.Null(e) && mask&ord(vals[e], k) != 0 })
		return
	}
	vb.SetSel(dropNulls(v, cmpLoop(vb, vals, []T{k}, 0, mask)))
}

// cmpLoop returns the surviving rows r at which x[r] compares with
// y[r*step] as mask asks: step 1 for two flat columns, 0 for a column
// against the one value y holds. Every candidate is written where the
// next survivor goes, and kept by stepping past it.
func cmpLoop[T int64 | float64](vb *types.VecBatch, x, y []T, step int, mask uint8) []int32 {
	out, n := vb.SelOut(), 0
	if vb.Sel == nil {
		out = out[:vb.Len()]
		for i, a := range x[:len(out)] {
			out[n] = int32(i)
			if mask&ord(a, y[i*step]) != 0 {
				n++
			}
		}
		return out[:n]
	}
	out = out[:len(vb.Sel)]
	for _, ri := range vb.Sel {
		out[n] = ri
		if mask&ord(x[ri], y[int(ri)*step]) != 0 {
			n++
		}
	}
	return out[:n]
}

// dropNulls removes from rows, in place, those whose entry in the flat
// vector v is NULL: the loops above compare the zero a NULL is stored
// over.
func dropNulls(v *types.Vector, rows []int32) []int32 {
	if len(v.Nulls) == 0 {
		return rows
	}
	n := 0
	for _, ri := range rows {
		rows[n] = ri
		if !v.Nulls.At(int(ri)) {
			n++
		}
	}
	return rows[:n]
}

// cmpCols runs the kernel of column l ⋄ column r: two flat vectors whose
// typed values compare directly — the same class, and the same scale
// where they are decimals. Anything else reports false.
func cmpCols(vb *types.VecBatch, l, r int, op BinOpKind) bool {
	a, b := &vb.Cols[l], &vb.Cols[r]
	if a.Enc != types.VecFlat || b.Enc != types.VecFlat || a.Class() != b.Class() ||
		!types.Comparable(a.Kind, b.Kind) || a.Scale != b.Scale {
		return false
	}
	mask := opMask[op]
	switch a.Class() {
	case types.ClassInt:
		vb.SetSel(dropNulls(b, dropNulls(a, cmpLoop(vb, a.Ints, b.Ints, 1, mask))))
	case types.ClassFloat:
		vb.SetSel(dropNulls(b, dropNulls(a, cmpLoop(vb, a.Floats, b.Floats, 1, mask))))
	case types.ClassStr:
		// Row e of two flat vectors is entry e of both.
		vb.Narrow(l, func(e int) bool { return !a.Null(e) && !b.Null(e) && mask&ord(a.Text(e), b.Text(e)) != 0 })
	default:
		return false
	}
	return true
}
