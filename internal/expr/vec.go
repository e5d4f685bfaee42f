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
// reference, no placeholder left unbound — to the value it has for the
// whole execution: a literal, and anything computed from literals, a
// bound $n and current_date being literals once Bind has replaced them.
// An operator calls it as it is built, so such a subtree costs one
// evaluation per execution instead of one per row. The binder's Fold is
// the plan-time half, and stricter: what it leaves is what must wait for
// execution.
func ExecConst(e Expr) (types.Datum, bool) {
	fixed := true
	Walk(e, func(x Expr) {
		if _, ok := x.(*ColRef); ok {
			fixed = false
		}
	})
	if !fixed {
		return types.Null, false
	}
	d, err := e.Eval(nil)
	return d, err == nil
}

// ColCmpTerm is a comparison of a column with a value that reads no
// column, the column on the left. It is the one shape zone maps, the
// filter kernels, partition elimination, direct dispatch, the planner's
// range estimates and a connector's pushdown look for in a conjunct. Val
// is still an expression: the planner reads a literal or a placeholder
// from it, and an execution resolves it with ExecConst into a ColCmp.
type ColCmpTerm struct {
	Col int
	Op  BinOpKind
	Val Expr
}

// ColCmp is a comparison of a column with a value fixed for the
// execution: the form a filter kernel, a zone map and a connector take.
type ColCmp struct {
	Col int
	Op  BinOpKind
	Val types.Datum
}

// commuted maps a comparison onto the one with its operands swapped.
var commuted = [...]BinOpKind{OpEq: OpEq, OpNe: OpNe, OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe}

// ColCmpTerms appends the comparisons the conjunct e amounts to — col ⋄
// v, v ⋄ col (commuted), col BETWEEN lo AND hi (two) — where each value
// reads no column, and reports false, dst unchanged, for any other shape.
func ColCmpTerms(e Expr, dst []ColCmpTerm) ([]ColCmpTerm, bool) {
	switch v := e.(type) {
	case *BinOp:
		if !v.Op.IsComparison() {
			break
		}
		if col, ok := v.L.(*ColRef); ok && refCols(v.R) == nil {
			return append(dst, ColCmpTerm{col.Idx, v.Op, v.R}), true
		}
		if col, ok := v.R.(*ColRef); ok && refCols(v.L) == nil {
			return append(dst, ColCmpTerm{col.Idx, commuted[v.Op], v.L}), true
		}
	case *Between:
		if col, ok := v.E.(*ColRef); ok && !v.Negate && refCols(v.Lo) == nil && refCols(v.Hi) == nil {
			return append(dst, ColCmpTerm{col.Idx, OpGe, v.Lo}, ColCmpTerm{col.Idx, OpLe, v.Hi}), true
		}
	}
	return dst, false
}

// MayMatch reports whether a value in [lo, hi] may satisfy the
// comparison: false only when none does. Bounds or a value that do not
// compare — a NULL among them, kinds types.Comparable refuses — may.
func (c ColCmp) MayMatch(lo, hi types.Datum) bool {
	if !types.Comparable(lo.K, c.Val.K) || !types.Comparable(hi.K, c.Val.K) {
		return true
	}
	// The outcomes comparing a value of [lo, hi] with Val can have.
	l, h := types.Compare(lo, c.Val), types.Compare(hi, c.Val)
	var can uint8
	if l < 0 {
		can |= ordLt
	}
	if l <= 0 && h >= 0 {
		can |= ordEq
	}
	if h > 0 {
		can |= ordGt
	}
	return can&opMask[c.Op] != 0
}

// Admits reports whether d satisfies the comparison, or may: it is
// MayMatch over the one value.
func (c ColCmp) Admits(d types.Datum) bool { return c.MayMatch(d, d) }

// filterStep is one kernel of a compiled filter: a column against a
// constant (r < 0), against another column, or — like set — against a
// LIKE pattern.
type filterStep struct {
	cmp  ColCmp
	r    int
	like *Like
	// e is the conjunct as an expression, for the batch whose vectors
	// the kernel cannot take; a comparison with a constant builds it
	// when that batch comes.
	e Expr
}

// VecFilter is a predicate compiled once per operator to run over vec
// batches. Conjuncts that compare a column with a constant or with
// another column, and a column's LIKE, are kernels: tight loops over the
// typed entries of a flat vector, one verdict per run or per dictionary
// entry otherwise. Every other conjunct (OR, IN, CASE, IS NULL, builtins
// over columns), and a kernel conjunct on a batch whose vectors are not
// of the kinds the kernel was built for, is evaluated row by row over the
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
	var terms []ColCmpTerm
	for _, c := range Conjuncts(pred, nil) {
		// A comparison is a kernel when its values are fixed for the
		// execution and none is NULL: no row passes a comparison with
		// NULL, and the row path says so.
		var ok bool
		if terms, ok = ColCmpTerms(c, terms[:0]); ok {
			n := len(f.steps)
			for _, t := range terms {
				d, fixed := ExecConst(t.Val)
				ok = ok && fixed && !d.IsNull()
				f.steps = append(f.steps, filterStep{cmp: ColCmp{t.Col, t.Op, d}, r: -1})
			}
			if ok {
				continue
			}
			f.steps = f.steps[:n]
		}
		if l, ok := c.(*Like); ok && l.Param == nil {
			if col, ok := l.E.(*ColRef); ok {
				f.steps = append(f.steps, filterStep{cmp: ColCmp{Col: col.Idx}, r: -1, like: l, e: c})
				continue
			}
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
// for a whole page, and a connector for a record it need not send.
func (f *VecFilter) Cmps() []ColCmp {
	var out []ColCmp
	for _, st := range f.steps {
		if st.r < 0 && st.like == nil {
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
			var done bool
			switch {
			case st.like != nil:
				done = likeCol(vb, st.cmp.Col, st.like)
			case st.r < 0:
				done = cmpConst(vb, st.cmp)
			default:
				done = cmpCols(vb, st.cmp.Col, st.r, st.cmp.Op)
			}
			if done {
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

// ord compares like types.Compare does within a class: a NaN equals NaN
// and is above every other number. Only a float can be unequal to
// itself, so the integer and string instances compile the test away.
func ord[T int64 | float64 | string](x, k T) uint8 {
	if x < k {
		return ordLt
	}
	if x > k {
		return ordGt
	}
	if x != x || k != k {
		switch {
		case k == k:
			return ordGt
		case x == x:
			return ordLt
		}
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

// likeCol runs the kernel of a column's LIKE: the matcher once per run,
// dictionary entry or surviving row of a flat column, NULL passing
// neither LIKE nor NOT LIKE. It reports false for a vector whose entries
// are not all of one string kind.
func likeCol(vb *types.VecBatch, col int, l *Like) bool {
	v := &vb.Cols[col]
	if v.Class() != types.ClassStr {
		return false
	}
	bytes := v.Kind == types.KindBytes
	vb.Narrow(col, func(e int) bool { return !v.Null(e) && likeMatch(v.Text(e), l.Pattern, bytes) != l.Negate })
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
