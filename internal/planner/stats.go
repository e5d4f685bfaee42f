package planner

import (
	"math"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/types"
)

// Costing from statistics (DESIGN.md §19): ANALYZE's per-column
// NDistinct, NullFrac, Min and Max size filters, joins and groups, and
// the System R constants are the fallback for a table ANALYZE has not
// reached.

// tableRows estimates a table's cardinality: ANALYZE statistics when
// present, else the tuple counts the segment-file catalog tracks for
// free, else a default.
func (p *Planner) tableRows(desc *catalog.TableDesc) float64 {
	if rs, ok := p.Cat.RelStatsFor(p.Snap, desc.OID); ok {
		// An analyzed-but-empty table is a known-empty table, not an
		// unknown one: clamp to 1 row instead of falling through to the
		// never-analyzed default (which would inflate it 1000x and drag
		// join orders with it).
		if rs.Rows < 1 {
			return 1
		}
		return float64(rs.Rows)
	}
	var tuples int64
	for _, sf := range p.Cat.AllSegFiles(p.Snap, desc.OID) {
		tuples += sf.Tuples
	}
	if tuples > 0 {
		return float64(tuples)
	}
	return 1000 // never analyzed, never loaded through us
}

// colStat returns the statistics of column att of table oid, or nil when
// the statement read none (it joins nothing) or ANALYZE did not count it.
func (p *Planner) colStat(oid int64, att int) *catalog.ColStats {
	cols := p.st.stats[oid] // p.st exists: the table was looked up
	if att >= len(cols) || cols[att].NDistinct < 1 {
		return nil
	}
	return &cols[att]
}

// statOf returns the statistics e carries when it is a column reference.
func statOf(e expr.Expr, cols []scopeCol) *catalog.ColStats {
	if cr, ok := e.(*expr.ColRef); ok && cr.Idx < len(cols) {
		return cols[cr.Idx].st
	}
	return nil
}

// colRange is the share [lo, hi] of a column's [Min, Max] that range
// predicates keep.
type colRange struct {
	col    int
	lo, hi float64
}

// selectivity estimates the share of rows the bound predicate e keeps
// over columns cols. The range conjuncts on one column are taken together
// — o_orderdate >= d AND o_orderdate < d + 3 months keeps the three
// months, not the product of two halves.
func selectivity(e expr.Expr, cols []scopeCol) float64 {
	sel := 1.0
	var ranges []colRange
	var walk func(expr.Expr)
	walk = func(e expr.Expr) {
		if b, ok := e.(*expr.BinOp); ok && b.Op == expr.OpAnd {
			walk(b.L)
			walk(b.R)
			return
		}
		r, ok := rangeOf(e, cols)
		if !ok {
			sel *= termSelectivity(e, cols)
			return
		}
		for i := range ranges {
			if ranges[i].col == r.col {
				ranges[i].lo, ranges[i].hi = math.Max(ranges[i].lo, r.lo), math.Min(ranges[i].hi, r.hi)
				return
			}
		}
		ranges = append(ranges, r)
	}
	walk(e)
	for _, r := range ranges {
		sel *= math.Max(r.hi-r.lo, 0) * (1 - cols[r.col].st.NullFrac)
	}
	return sel
}

// termSelectivity estimates one conjunct: equality keeps (1 −
// NullFrac)/NDistinct of a column with statistics, the rest keep the
// classic constants, and a negation the complement.
func termSelectivity(e expr.Expr, cols []scopeCol) float64 {
	eq := func(col expr.Expr, n, fallback float64) float64 {
		if st := statOf(col, cols); st != nil {
			return math.Min(n/st.NDistinct, 1) * (1 - st.NullFrac)
		}
		return fallback
	}
	either := func(negate bool, sel float64) float64 {
		if negate {
			return 1 - sel
		}
		return sel
	}
	switch v := e.(type) {
	case *expr.BinOp:
		col := v.L
		if statOf(col, cols) == nil {
			col = v.R
		}
		switch v.Op {
		case expr.OpOr:
			return math.Min(selectivity(v.L, cols)+selectivity(v.R, cols), 1)
		case expr.OpEq, expr.OpNe:
			return either(v.Op == expr.OpNe, eq(col, 1, 0.05))
		case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return 0.3
		}
	case *expr.Like:
		return either(v.Negate, 0.15)
	case *expr.Between:
		return either(v.Negate, 0.25)
	case *expr.InList:
		n := float64(len(v.Items))
		return either(v.Negate, eq(v.E, n, math.Min(0.1*(n+1), 1)))
	case *expr.IsNull:
		null := 0.05
		if st := statOf(v.E, cols); st != nil {
			null = st.NullFrac
		}
		return either(v.Negate, null)
	case *expr.Not:
		return 1 - selectivity(v.E, cols)
	}
	return 0.5
}

// rangeOf recognizes a bound on a numeric or date column with Min and Max
// (col < c, c <= col, col BETWEEN a AND b, ...) and interpolates it.
func rangeOf(e expr.Expr, cols []scopeCol) (colRange, bool) {
	var buf [2]expr.ColCmpTerm
	terms, _ := expr.ColCmpTerms(e, buf[:0])
	if len(terms) == 0 || terms[0].Col >= len(cols) || cols[terms[0].Col].st == nil {
		return colRange{}, false
	}
	r := colRange{col: terms[0].Col, lo: 0, hi: 1}
	st := cols[r.col].st
	min, max := st.Min.Float(), st.Max.Float()
	if !ordered(st.Min.K) || !ordered(st.Max.K) || max <= min {
		return colRange{}, false
	}
	for _, t := range terms {
		c, isConst := t.Val.(*expr.Const)
		if !isConst || !ordered(c.D.K) {
			return colRange{}, false
		}
		share := math.Min(math.Max((c.D.Float()-min)/(max-min), 0), 1)
		switch t.Op {
		case expr.OpLt, expr.OpLe:
			r.hi = share
		case expr.OpGt, expr.OpGe:
			r.lo = share
		default:
			return colRange{}, false
		}
	}
	return r, true
}

func ordered(k types.Kind) bool {
	switch k {
	case types.KindInt32, types.KindInt64, types.KindDecimal, types.KindFloat64, types.KindDate:
		return true
	}
	return false
}

// ndv estimates the distinct values of rel's column c: its base column's
// NDistinct, never more than rel's rows — and rel's rows when unknown,
// which makes a join on unknown keys the textbook min(|L|, |R|).
func ndv(rel *relation, c int) float64 {
	if st := rel.cols[c].st; st != nil && st.NDistinct < rel.rows {
		return st.NDistinct
	}
	return rel.rows
}

// keyNDV is the distinct values of a key list: the product of its
// columns', never more than the rows.
func keyNDV(rel *relation, keys []int) float64 {
	n := 1.0
	for _, k := range keys {
		n *= ndv(rel, k)
	}
	return math.Max(math.Min(n, rel.rows), 1)
}

// joinRows estimates the inner equi-join of l and r on the key pairs
// (lk[i], rk[i]): |L|·|R| / max(ndv_L, ndv_R). Without keys it is the
// cross product.
func joinRows(l, r *relation, lk, rk []int) float64 {
	return math.Max(l.rows*r.rows/math.Max(keyNDV(l, lk), keyNDV(r, rk)), 1)
}

// groupRows estimates the groups of GROUP BY groups over rel: the product
// of the keys' distinct values, never more than the rows; a tenth of the
// rows when a key has no statistics.
func groupRows(rel *relation, groups []expr.Expr) float64 {
	if len(groups) == 0 {
		return 1
	}
	n := 1.0
	for _, g := range groups {
		if statOf(g, rel.cols) == nil {
			return math.Max(rel.rows/10, 1)
		}
		n *= ndv(rel, g.(*expr.ColRef).Idx)
	}
	return math.Max(math.Min(n, rel.rows), 1)
}

// width estimates the bytes of one of rel's rows from its column kinds.
func width(rel *relation) float64 {
	w := 4.0 // a row of no columns still costs something to move
	for _, c := range rel.schema().Columns {
		switch c.Kind {
		case types.KindString, types.KindBytes:
			w += 24
		case types.KindInt32, types.KindDate, types.KindBool:
			w += 4
		default:
			w += 8
		}
	}
	return w
}

// bytes estimates rel's size: its rows times their width.
func bytes(rel *relation) float64 { return rel.rows * width(rel) }

// notNull reports whether e, over columns cols, can never be NULL: a NOT
// NULL column, a non-NULL constant, or COALESCE with such an argument.
// Anything else — CASE, NULLIF, arithmetic (x / 0 is NULL), an aggregate
// — may be.
func notNull(e expr.Expr, cols []scopeCol) bool {
	switch v := e.(type) {
	case *expr.ColRef:
		return v.Idx < len(cols) && cols[v.Idx].notNull
	case *expr.Const:
		return !v.D.IsNull()
	case *expr.FuncCall:
		for _, a := range v.Args {
			if v.Name == "coalesce" && notNull(a, cols) {
				return true
			}
		}
	}
	return false
}

// withFacts sets each of cols' statistics and nullability from the
// expression computing it over in: a column reference carries its
// source's, anything else no statistics.
func withFacts(cols []scopeCol, exprs []expr.Expr, in []scopeCol) []scopeCol {
	for i, e := range exprs {
		cols[i].notNull = notNull(e, in)
		if cr, ok := e.(*expr.ColRef); ok && cr.Idx < len(in) {
			cols[i].st = in[cr.Idx].st
		}
	}
	return cols
}
