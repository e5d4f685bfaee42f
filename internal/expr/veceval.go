package expr

import (
	"fmt"

	"hawq/internal/types"
)

// VecProg is a list of value expressions compiled once per operator to
// be evaluated a column at a time over vec batches. A column reference
// is the batch's own vector, or its surviving entries gathered; a
// subtree that reads no column is evaluated once, when the program is
// compiled; + − × are kernels over typed vectors whose result kind and
// scale are what types.Add/Sub/Mul give every row; identical subtrees
// share one node and are computed once per batch. Every other shape
// (division, CASE, builtins over columns, …) is evaluated row by row
// over the surviving rows through a scratch Row, and so is a kernel node
// for the batch its kernel must abandon — a Mixed operand, a decimal
// product that does not fit — so every result is what Eval gives, bit
// for bit. A VecProg holds scratch and serves one goroutine.
type VecProg struct {
	nodes []vecNode
	roots []int
	byKey map[string]int
	rr    types.RowReader
	// rows is the surviving row count of the batch being evaluated.
	rows int
}

type nodeKind uint8

const (
	nodeCol   nodeKind = iota // a column of the batch
	nodeConst                 // one value for the whole execution
	nodeArith                 // l op r, op one of + − ×
	nodeRows                  // e evaluated row by row
)

type vecNode struct {
	kind nodeKind
	// e is the expression the node computes and cols the columns it
	// reads: what the row path evaluates.
	e    Expr
	cols []int
	col  int         // nodeCol
	val  types.Datum // nodeConst
	op   BinOpKind   // nodeArith
	l, r int
	// res is the node's value for the current batch: a flat vector of
	// one entry per surviving row (nodeConst: a single entry). It is out,
	// the node's own storage, or a column of the batch itself.
	res *types.Vector
	out types.Vector
	b   types.VecBuilder
	idx []int32
	// cvtL and cvtR hold an integer operand converted for a float kernel.
	cvtL, cvtR []float64
}

// CompileVec compiles exprs into one program; Result(i) is exprs[i].
func CompileVec(exprs []Expr) *VecProg {
	p := &VecProg{byKey: map[string]int{}}
	for _, e := range exprs {
		p.roots = append(p.roots, p.compile(e))
	}
	return p
}

// compile returns the node computing e, an existing one when the same
// expression was compiled before.
func (p *VecProg) compile(e Expr) int {
	n := vecNode{kind: nodeRows, e: e, cols: refCols(e)}
	key := ""
	if d, ok := ExecConst(e); ok {
		n.kind, n.val = nodeConst, d
		key = "k" + string(types.EncodeDatum(nil, d))
	} else {
		switch v := e.(type) {
		case *ColRef:
			n.kind, n.col = nodeCol, v.Idx
			key = fmt.Sprintf("c%d", v.Idx)
		case *BinOp:
			if v.Op == OpAdd || v.Op == OpSub || v.Op == OpMul {
				n.kind, n.op = nodeArith, v.Op
				n.l, n.r = p.compile(v.L), p.compile(v.R)
				key = fmt.Sprintf("(%d%s%d)", n.l, v.Op, n.r)
			}
		}
	}
	if key != "" {
		if at, ok := p.byKey[key]; ok {
			return at
		}
		p.byKey[key] = len(p.nodes)
	}
	p.nodes = append(p.nodes, n)
	return len(p.nodes) - 1
}

// Eval computes every expression over the surviving rows of vb. The
// results are valid until the next Eval, and while vb is.
func (p *VecProg) Eval(vb *types.VecBatch) error {
	p.rows = vb.SelCount()
	for i := range p.nodes {
		n := &p.nodes[i]
		n.res = &n.out
		switch n.kind {
		case nodeCol:
			if n.col >= len(vb.Cols) {
				return fmt.Errorf("expr: column %d out of range (row width %d)", n.col, len(vb.Cols))
			}
			p.column(n, vb)
			continue
		case nodeConst:
			n.b.Reset(&n.out, 1, false)
			n.b.Append(n.val)
			n.b.Finish()
			continue
		case nodeArith:
			if p.arith(n) {
				continue
			}
		}
		p.rr.Reset(vb, n.cols)
		n.b.Reset(&n.out, p.rows, false)
		for r := 0; r < p.rows; r++ {
			d, err := n.e.Eval(p.rr.Row(r))
			if err != nil {
				return err
			}
			n.b.Append(d)
		}
		n.b.Finish()
	}
	return nil
}

// Result returns expression i of the last Eval as a flat vector with one
// entry per surviving row, in row order. It is read-only: it may be a
// column of the batch.
func (p *VecProg) Result(i int) *types.Vector {
	n := &p.nodes[p.roots[i]]
	if n.kind == nodeConst && p.rows != 1 {
		// Only a consumer of the constant itself pays for its copies.
		n.b.Reset(&n.out, p.rows, false)
		for r := 0; r < p.rows; r++ {
			n.b.Append(n.val)
		}
		n.b.Finish()
	}
	return n.res
}

// column sets n.res to the surviving rows of the node's column: the
// batch's vector itself when it is flat and nothing is filtered, else
// its entries gathered in row order.
func (p *VecProg) column(n *vecNode, vb *types.VecBatch) {
	v := &vb.Cols[n.col]
	if v.Enc == types.VecFlat && vb.Sel == nil {
		n.res = v
		return
	}
	var idx []int32
	idx, n.idx = v.EntryIndex(vb.Sel, n.idx)
	out := p.clear(n)
	out.Kind, out.Scale, out.Mixed = v.Kind, v.Scale, v.Mixed
	switch v.Class() {
	case types.ClassInt:
		out.Ints = gather(out.Ints, v.Ints, idx)
	case types.ClassFloat:
		out.Floats = gather(out.Floats, v.Floats, idx)
	case types.ClassMixed:
		out.Values = gather(out.Values, v.Values, idx)
	case types.ClassStr:
		n.b.Reset(out, p.rows, false)
		for _, e := range idx {
			n.b.Append(v.Datum(int(e)))
		}
		n.b.Finish()
		return
	}
	if len(v.Nulls) != 0 {
		for i, e := range idx {
			if v.Nulls.At(int(e)) {
				out.Nulls.Set(i)
			}
		}
	}
}

// clear empties a node's own vector, keeping its capacity: a flat vector
// of one NULL per surviving row until a kernel fills it.
func (p *VecProg) clear(n *vecNode) *types.Vector {
	out := &n.out
	*out = types.Vector{N: p.rows, Ints: out.Ints[:0], Floats: out.Floats[:0], Offs: out.Offs[:0],
		Nulls: out.Nulls[:0], Values: out.Values[:0]}
	return out
}

// gather returns dst holding src[idx[i]] for every i.
func gather[T any](dst, src []T, idx []int32) []T {
	dst = grow(dst, len(idx))
	for i, e := range idx {
		dst[i] = src[e]
	}
	return dst
}

// operand is one side of an arithmetic kernel: a flat typed vector with
// an entry per surviving row, or a single entry every row shares (a
// constant), which step 0 reads over and over.
type operand struct {
	v    *types.Vector
	step int
}

func (p *VecProg) operand(i int) operand {
	n := &p.nodes[i]
	if n.kind == nodeConst {
		return operand{n.res, 0}
	}
	return operand{n.res, 1}
}

// numScale returns the decimal scale arithmetic sees in a vector of
// kind k: integers are decimals of scale 0.
func numScale(v *types.Vector) int8 {
	if v.Kind == types.KindDecimal {
		return v.Scale
	}
	return 0
}

func isInt(k types.Kind) bool { return k == types.KindInt32 || k == types.KindInt64 }

// arith computes n.l op n.r into n.out with the kernel for the operands'
// kinds, and reports false when there is none or the kernel met a value
// it must not decide (a decimal product that overflows): the caller then
// evaluates the node's expression row by row.
func (p *VecProg) arith(n *vecNode) bool {
	a, b := p.operand(n.l), p.operand(n.r)
	ca, cb := a.v.Class(), b.v.Class()
	out := p.clear(n)
	if ca == types.ClassNull || cb == types.ClassNull {
		// NULL in, NULL out, whatever the other side holds.
		return true
	}
	ak, bk := a.v.Kind, b.v.Kind
	switch {
	case ca == types.ClassInt && cb == types.ClassInt:
		ma, mb, trunc, checked := int64(1), int64(1), false, false
		switch {
		case ak == types.KindDate && isInt(bk) && n.op != OpMul:
			out.Kind, trunc = types.KindDate, true
		case ak == types.KindDate && bk == types.KindDate && n.op == OpSub:
			out.Kind = types.KindInt64
		case isInt(ak) && isInt(bk):
			out.Kind = types.KindInt64
		case (isInt(ak) || ak == types.KindDecimal) && (isInt(bk) || bk == types.KindDecimal):
			sa, sb := numScale(a.v), numScale(b.v)
			out.Kind = types.KindDecimal
			if n.op == OpMul {
				if out.Scale = sa + sb; out.Scale > types.MaxDecimalScale {
					return false
				}
				checked = true
				break
			}
			// Both sides at the wider scale, wrapping as rescale does.
			out.Scale = max(sa, sb)
			for s := sa; s < out.Scale; s++ {
				ma *= 10
			}
			for s := sb; s < out.Scale; s++ {
				mb *= 10
			}
		default:
			return false
		}
		out.Ints = grow(out.Ints, p.rows)
		if !arithInts(n.op, checked, a.v.Ints, a.step, ma, b.v.Ints, b.step, mb, out.Ints) {
			return false
		}
		if trunc {
			for i, x := range out.Ints {
				out.Ints[i] = int64(int32(x))
			}
		}
	case (ca == types.ClassFloat || ca == types.ClassInt) && (cb == types.ClassFloat || cb == types.ClassInt):
		var ok bool
		x, y := a.v.Floats, b.v.Floats
		if ca == types.ClassInt {
			if n.cvtL, ok = toFloats(n.cvtL, a.v); !ok {
				return false
			}
			x = n.cvtL
		}
		if cb == types.ClassInt {
			if n.cvtR, ok = toFloats(n.cvtR, b.v); !ok {
				return false
			}
			y = n.cvtR
		}
		out.Kind = types.KindFloat64
		out.Floats = grow(out.Floats, p.rows)
		arithFloats(n.op, x, a.step, y, b.step, out.Floats)
	default:
		return false
	}
	orNulls(out, a, b)
	return true
}

// grow returns s with length n, its contents unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// toFloats converts an integer or decimal vector the way Datum.Float
// converts each value; dates and booleans are no numbers.
func toFloats(dst []float64, v *types.Vector) ([]float64, bool) {
	if !isInt(v.Kind) && v.Kind != types.KindDecimal {
		return dst, false
	}
	div, ok := types.Pow10(numScale(v))
	if !ok {
		return dst, false
	}
	dst = grow(dst, len(v.Ints))
	if v.Kind == types.KindDecimal {
		for i, x := range v.Ints {
			dst[i] = float64(x) / div
		}
	} else {
		for i, x := range v.Ints {
			dst[i] = float64(x)
		}
	}
	return dst, true
}

// arithInts fills out[i] with a[i*sa]*ma op b[i*sb]*mb in wrapping
// int64 arithmetic, like types.arith; ma and mb bring decimals of two
// scales onto one and are 1 for a product. A checked product — of
// decimals, not of integers, which wrap — stops and reports false at
// the first types.Mul would hand to floating point.
func arithInts(op BinOpKind, checked bool, a []int64, sa int, ma int64, b []int64, sb int, mb int64, out []int64) bool {
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = a[i*sa]*ma + b[i*sb]*mb
		}
	case OpSub:
		for i := range out {
			out[i] = a[i*sa]*ma - b[i*sb]*mb
		}
	case OpMul:
		for i := range out {
			x, y := a[i*sa], b[i*sb]
			v := x * y
			// Two values that fit 32 bits cannot overflow; only the rest
			// pay for the division types.Mul checks with.
			if checked && (uint64(x+1<<31)|uint64(y+1<<31))>>32 != 0 && x != 0 && v/x != y {
				return false
			}
			out[i] = v
		}
	}
	return true
}

// arithFloats fills out[i] with a[i*sa] op b[i*sb].
func arithFloats(op BinOpKind, a []float64, sa int, b []float64, sb int, out []float64) {
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = a[i*sa] + b[i*sb]
		}
	case OpSub:
		for i := range out {
			out[i] = a[i*sa] - b[i*sb]
		}
	case OpMul:
		for i := range out {
			out[i] = a[i*sa] * b[i*sb]
		}
	}
}

// orNulls marks NULL in out every row at which either operand is NULL.
// A constant operand is not NULL here: a NULL constant is a ClassNull
// vector and never reaches a kernel.
func orNulls(out *types.Vector, a, b operand) {
	for _, o := range []operand{a, b} {
		if o.step != 0 {
			out.Nulls.Or(o.v.Nulls)
		}
	}
}
