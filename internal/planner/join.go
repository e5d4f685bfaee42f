package planner

import (
	"fmt"
	"math"
	"slices"

	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// joinEdge is an equi-join predicate between two FROM units.
type joinEdge struct {
	a, b int
	l, r *sqlparser.Ident // l belongs to unit a, r to unit b (verified later)
	raw  sqlparser.Expr
}

// orderJoins greedily joins the units, cost-based in the sense of §3
// ("evaluates potential plans and selects the one that leads to the most
// efficient execution"): it starts with the connected pair whose join is
// estimated smallest in bytes, then repeatedly adds the connected unit
// whose join is — so Q10 joins its orders to lineitem, where both lie,
// before customer's wide rows join them. Each join builds its hash
// table on the side smaller in bytes. Candidates are tried in FROM order
// and only a strictly cheaper one displaces the best so far, so a tie
// goes to the unit written first: one statement over one snapshot has
// one plan. perm lists the result's columns in FROM order, nil when they
// already are.
func (p *Planner) orderJoins(units []*fromUnit, edges []joinEdge) (cur *relation, perm []int, err error) {
	if len(units) == 1 {
		return units[0].rel, nil, nil
	}
	merged := make([]bool, len(units))
	used := make([]bool, len(edges))
	var order []int // the joined units, in the order of cur's columns
	for len(order) < len(units) {
		from, next, cost := -1, -1, math.MaxFloat64
		var bestEdges, lk, rk []int
		// A start pair is any two units (a >= 0); after it, cur and one
		// more (a = -1).
		for a := -1; a < len(units); a++ {
			if (a >= 0) == (cur != nil) {
				continue
			}
			left, in := cur, func(u int) bool { return merged[u] }
			if a >= 0 {
				left, in = units[a].rel, func(u int) bool { return u == a }
			}
			for u := range units {
				var es []int
				for ei, e := range edges {
					if !used[ei] && !in(u) && ((in(e.a) && e.b == u) || (in(e.b) && e.a == u)) {
						es = append(es, ei)
					}
				}
				if len(es) == 0 {
					continue
				}
				l, r, err := edgeKeys(left, units[u].rel, edges, es)
				if err != nil {
					return nil, nil, err
				}
				out := joinRows(left, units[u].rel, l, r)
				if c := out * (width(left) + width(units[u].rel)); c < cost {
					from, next, cost, bestEdges, lk, rk = a, u, c, es, l, r
				}
			}
		}
		if next < 0 {
			// No connecting edge: cross join with the smallest remaining.
			for u := range units {
				if !merged[u] && (next < 0 || units[u].rel.rows < units[next].rel.rows) {
					next = u
				}
			}
			if cur == nil {
				cur, merged[next], order = units[next].rel, true, []int{next}
				continue
			}
		}
		if cur == nil {
			cur, merged[from], order = units[from].rel, true, []int{from}
		}
		for _, ei := range bestEdges {
			used[ei] = true
		}
		l, r := cur, units[next].rel
		if bytes(l) < bytes(r) {
			// Build on cur: the next unit's columns come first.
			l, r, lk, rk = r, l, rk, lk
			order = append([]int{next}, order...)
		} else {
			order = append(order, next)
		}
		if cur, err = p.joinRelations(l, r, lk, rk, plan.InnerJoin, nil); err != nil {
			return nil, nil, err
		}
		merged[next] = true
	}
	// Any unused edges become residual filters (redundant cycle edges).
	for ei, e := range edges {
		if used[ei] {
			continue
		}
		b := p.binder(cur.scope())
		bound, err := b.bind(e.raw)
		if err != nil {
			return nil, nil, err
		}
		cur = filtered(cur, bound)
	}
	at, off := make([]int, len(units)), 0
	for _, u := range order {
		at[u], off = off, off+units[u].rel.schema().Len()
	}
	for u := range units {
		for k := 0; k < units[u].rel.schema().Len(); k++ {
			perm = append(perm, at[u]+k)
		}
	}
	if slices.IsSorted(perm) {
		perm = nil
	}
	return cur, perm, nil
}

// edgeKeys resolves the columns of the equi-join edges es against the
// relation being joined (cur) and the unit joining it (next).
func edgeKeys(cur, next *relation, edges []joinEdge, es []int) (lk, rk []int, err error) {
	for _, ei := range es {
		li, ri, ok := eqSides(cur.scope(), next.scope(), edges[ei].l, edges[ei].r)
		if !ok {
			return nil, nil, fmt.Errorf("planner: cannot resolve join predicate %s", edges[ei].raw)
		}
		lk, rk = append(lk, li), append(rk, ri)
	}
	return lk, rk, nil
}

// eqSides resolves the two identifiers of an equality one in each scope,
// whichever way round it is written.
func eqSides(ls, rs *scope, l, r *sqlparser.Ident) (int, int, bool) {
	li, ri := ls.index(l), rs.index(r)
	if li < 0 || ri < 0 {
		li, ri = ls.index(r), rs.index(l)
	}
	return li, ri, li >= 0 && ri >= 0
}

// joinRelations builds the physical join with the motions it needs,
// exploiting colocation (§2.3): two relations hash-distributed on their
// join keys join locally without any data movement. When movement is
// unavoidable the planner costs the alternatives — redistribute one
// side, broadcast the smaller side, or redistribute both — and picks the
// cheapest (§3's cost-based optimization).
func (p *Planner) joinRelations(left, right *relation, leftKeys, rightKeys []int, kind plan.JoinKind, residual expr.Expr) (*relation, error) {
	leftKeys, rightKeys, residual = hashableKeys(left, right, leftKeys, rightKeys, residual)
	outRows := joinRows(left, right, leftKeys, rightKeys)
	// The output's columns: an outer join's nullable side may be NULL
	// whatever the catalog says, a semi or anti join has the left's only.
	cols := append(append([]scopeCol{}, left.cols...), right.cols...)
	for i := len(left.cols); kind == plan.LeftJoin && i < len(cols); i++ {
		cols[i].notNull = false
	}
	if kind == plan.LeftJoin {
		outRows = math.Max(outRows, left.rows)
	}
	if kind == plan.SemiJoin || kind == plan.AntiJoin {
		cols = left.cols
	}

	if len(leftKeys) == 0 {
		// No equi keys: broadcast the inner side, nested loop join.
		inner := p.broadcast(right)
		schema := left.schema().Concat(inner.schema())
		if kind == plan.SemiJoin || kind == plan.AntiJoin {
			schema = left.schema()
		}
		node := &plan.NestLoopJoin{Kind: kind, Left: left.node, Right: inner.node, Pred: residual, Schema: schema}
		return &relation{node: node, cols: cols, dist: left.dist, rows: outRows, equiv: left.equiv}, nil
	}

	l, r := p.placeJoinSides(left, right, leftKeys, rightKeys, kind)

	schema := l.schema().Concat(r.schema())
	if kind == plan.SemiJoin || kind == plan.AntiJoin {
		schema = l.schema()
	}
	node := &plan.HashJoin{
		Kind: kind, Left: l.node, Right: r.node,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		ExtraPred: residual, Schema: schema,
	}
	// Output distribution: the probe side's partitioning survives (its
	// columns keep their positions); a replicated probe inherits the
	// build side's.
	outDist := l.dist
	if outDist.kind == distReplicated {
		if r.dist.kind == distHash && kind != plan.SemiJoin && kind != plan.AntiJoin {
			shifted := make([]int, len(r.dist.cols))
			for i, c := range r.dist.cols {
				shifted[i] = c + l.schema().Len()
			}
			outDist = distInfo{kind: distHash, cols: shifted}
		} else {
			outDist = distInfo{kind: distRandom}
		}
	}
	out := &relation{node: node, cols: cols, dist: outDist, rows: outRows}
	// Propagate equivalences: inner-join equi keys are equal in the
	// output, and each side's prior classes survive (right shifted).
	if kind == plan.InnerJoin || kind == plan.LeftJoin {
		out.equiv = append(out.equiv, l.equiv...)
		for _, class := range r.equiv {
			shifted := make([]int, len(class))
			for i, c := range class {
				shifted[i] = c + l.schema().Len()
			}
			out.equiv = append(out.equiv, shifted)
		}
		if kind == plan.InnerJoin {
			for i := range leftKeys {
				out.equiv = append(out.equiv, []int{leftKeys[i], rightKeys[i] + l.schema().Len()})
			}
		}
	} else {
		out.equiv = l.equiv
	}
	return out, nil
}

// hashableKeys keeps as join keys the equalities whose two sides hash
// alike (types.Hashable) and moves every other one — a DOUBLE against an
// exact numeric — into the residual predicate over left‖right, where it
// is evaluated by value. Neither the join's table nor a redistribute
// motion can bring such a pair to one form, so as a key it would match
// nothing.
func hashableKeys(left, right *relation, leftKeys, rightKeys []int, residual expr.Expr) ([]int, []int, expr.Expr) {
	ls, rs := left.schema(), right.schema()
	var lk, rk []int
	for i := range leftKeys {
		lc, rc := ls.Columns[leftKeys[i]], rs.Columns[rightKeys[i]]
		if types.Hashable(lc.Kind, rc.Kind) {
			lk, rk = append(lk, leftKeys[i]), append(rk, rightKeys[i])
			continue
		}
		eq := expr.NewBinOp(expr.OpEq,
			&expr.ColRef{Idx: leftKeys[i], K: lc.Kind, Name: lc.Name},
			&expr.ColRef{Idx: ls.Len() + rightKeys[i], K: rc.Kind, Name: rc.Name})
		residual = conjoin(residual, eq)
	}
	return lk, rk, residual
}

// conjoin returns a AND b, or b alone when there is no a yet.
func conjoin(a, b expr.Expr) expr.Expr {
	if a == nil {
		return b
	}
	return expr.NewBinOp(expr.OpAnd, a, b)
}

// hashedOnKeys reports whether rel's distribution equals the join keys
// (up to the relation's column equivalences), returning the pairing of
// dist col index -> key index, or nil.
func hashedOnKeys(rel *relation, keys []int) []int {
	if rel.dist.kind != distHash {
		return nil
	}
	pairing := make([]int, len(rel.dist.cols))
	for i, dc := range rel.dist.cols {
		found := -1
		for ki, k := range keys {
			if rel.sameCol(k, dc) {
				found = ki
				break
			}
		}
		if found == -1 {
			return nil
		}
		pairing[i] = found
	}
	return pairing
}

// placeJoinSides decides the motions for a hash join, comparing the
// viable placements by the estimated bytes they move.
func (p *Planner) placeJoinSides(left, right *relation, leftKeys, rightKeys []int, kind plan.JoinKind) (*relation, *relation) {
	nseg := float64(p.NumSegments)
	lAligned := hashedOnKeys(left, leftKeys)
	rAligned := hashedOnKeys(right, rightKeys)
	if p.DisableColocation {
		lAligned, rAligned = nil, nil
	}
	// Replicated sides are free wherever they are.
	if right.dist.kind == distReplicated {
		if left.dist.kind == distQD {
			left = p.redistributeCols(left, leftKeys)
		}
		return left, right
	}
	if left.dist.kind == distReplicated {
		if right.dist.kind == distQD {
			right = p.redistributeCols(right, rightKeys)
		}
		return left, right
	}

	keep := func(r *relation) func() *relation { return func() *relation { return r } }
	move := func(r *relation, cols []int) func() *relation {
		return func() *relation { return p.redistributeCols(r, cols) }
	}
	bcast := func(r *relation) func() *relation { return func() *relation { return p.broadcast(r) } }
	// realign lists keys in the order of a side's distribution columns.
	realign := func(pairing, keys []int) []int {
		out := make([]int, len(pairing))
		for i, ki := range pairing {
			out[i] = keys[ki]
		}
		return out
	}
	// The cheapest option wins; a tie keeps the one tried first.
	cost, fixL, fixR := math.MaxFloat64, keep(left), keep(right)
	try := func(c float64, l, r func() *relation) {
		if c < cost {
			cost, fixL, fixR = c, l, r
		}
	}
	lMovable := left.dist.kind != distQD
	rMovable := right.dist.kind != distQD
	// Colocated: free.
	if lAligned != nil && rAligned != nil && slices.Equal(lAligned, rAligned) && lMovable && rMovable {
		try(0, keep(left), keep(right))
	}
	// Keep one side, redistribute the other to match its key pairing.
	if lAligned != nil && lMovable {
		try(bytes(right), keep(left), move(right, realign(lAligned, rightKeys)))
	}
	if rAligned != nil && rMovable {
		try(bytes(left), move(left, realign(rAligned, leftKeys)), keep(right))
	}
	// Broadcast the build side; the probe stays wherever it is (valid
	// for every join kind — each probe row sees every build row).
	if lMovable {
		try(bytes(right)*nseg, keep(left), bcast(right))
	}
	// Broadcast the probe side (inner joins only: outer/semi/anti would
	// duplicate probe-side rows).
	if kind == plan.InnerJoin && rMovable {
		try(bytes(left)*nseg, bcast(left), keep(right))
	}
	// Redistribute both on the join keys.
	try(bytes(left)+bytes(right), move(left, leftKeys), move(right, rightKeys))
	return fixL(), fixR()
}

// redistributeCols hashes a relation across the cluster on the given
// columns.
func (p *Planner) redistributeCols(rel *relation, cols []int) *relation {
	var input plan.Node = rel.node
	if rel.dist.kind == distQD {
		input = &plan.SenderHint{Input: rel.node, Segments: []int{plan.QDSegment}}
	}
	m := &plan.Motion{Type: plan.RedistributeMotion, Input: input, HashCols: cols}
	return &relation{
		node: m, cols: rel.cols,
		dist:  distInfo{kind: distHash, cols: cols},
		rows:  rel.rows,
		equiv: rel.equiv,
	}
}

// broadcast replicates a relation to every segment.
func (p *Planner) broadcast(rel *relation) *relation {
	if rel.dist.kind == distReplicated {
		return rel
	}
	var input plan.Node = rel.node
	if rel.dist.kind == distQD {
		input = &plan.SenderHint{Input: rel.node, Segments: []int{plan.QDSegment}}
	}
	m := &plan.Motion{Type: plan.BroadcastMotion, Input: input}
	return &relation{node: m, cols: rel.cols, dist: distInfo{kind: distReplicated}, rows: rel.rows, equiv: rel.equiv}
}

// semiUnit is an EXISTS / IN-subquery predicate destined to become a
// semi or anti join.
type semiUnit struct {
	sub  *sqlparser.SelectStmt
	anti bool
	// outerExpr/innerIdent: for IN, the outer expression pairs with the
	// subquery's single output column.
	outerExpr sqlparser.Expr // nil for EXISTS
}

// asSemiUnit recognizes [NOT] EXISTS (...) and e [NOT] IN (SELECT ...).
func asSemiUnit(c sqlparser.Expr) (*semiUnit, bool) {
	switch v := c.(type) {
	case *sqlparser.ExistsExpr:
		return &semiUnit{sub: v.Sub, anti: v.Negate}, true
	case *sqlparser.UnExpr:
		if v.Op == "not" {
			if ex, ok := v.E.(*sqlparser.ExistsExpr); ok {
				return &semiUnit{sub: ex.Sub, anti: !ex.Negate}, true
			}
		}
	case *sqlparser.InExpr:
		if v.Sub != nil {
			return &semiUnit{sub: v.Sub, anti: v.Negate, outerExpr: v.E}, true
		}
	}
	return nil, false
}

// applySemiJoin turns an EXISTS/IN subquery into a semi/anti hash join
// against the outer relation. Correlation is supported for equality
// predicates referencing outer columns (the common TPC-H shapes).
func (p *Planner) applySemiJoin(outer *relation, su *semiUnit) (*relation, error) {
	sub := su.sub
	outerScope := outer.scope()
	subScope := p.fromScope(sub.From)

	// Split the subquery's WHERE into correlated equalities (outer col =
	// inner col) and local predicates.
	var local []sqlparser.Expr
	var corrOuter, corrInner []*sqlparser.Ident
	for _, c := range conjuncts(sub.Where) {
		if l, r, ok := equiJoinSides(c); ok {
			if subScope.binds(l) {
				l, r = r, l
			}
			// A correlated equality has one side that only resolves in
			// the outer scope and one that resolves locally.
			if outerScope.index(l) >= 0 && subScope.binds(r) && !subScope.binds(l) {
				corrOuter, corrInner = append(corrOuter, l), append(corrInner, r)
				continue
			}
		}
		local = append(local, c)
	}
	// Plan the subquery with correlated columns appended to its
	// projection so they become join keys.
	inner := &sqlparser.SelectStmt{From: sub.From, Where: fold("and", local)}
	if su.outerExpr != nil {
		// IN (SELECT x ...): key is the subquery's projection.
		if len(sub.Projections) != 1 || sub.Projections[0].Star {
			return nil, fmt.Errorf("planner: IN subquery must select exactly one column")
		}
		inner.Projections = append(inner.Projections, sub.Projections[0])
	}
	for _, ci := range corrInner {
		inner.Projections = append(inner.Projections, sqlparser.SelectItem{Expr: ci})
	}
	if len(inner.Projections) == 0 {
		return nil, fmt.Errorf("planner: EXISTS subquery has no correlation to the outer query")
	}
	// Preserve the subquery's aggregation if present (e.g. IN (SELECT k
	// FROM ... GROUP BY k HAVING ...)).
	inner.GroupBy = sub.GroupBy
	inner.Having = sub.Having
	innerRel, err := p.planQuery(inner)
	if err != nil {
		return nil, err
	}
	// Outer join keys.
	var leftKeys []int
	bOuter := p.binder(outerScope)
	if su.outerExpr != nil {
		bound, err := bOuter.bind(su.outerExpr)
		if err != nil {
			return nil, err
		}
		cr, ok := bound.(*expr.ColRef)
		if !ok {
			return nil, fmt.Errorf("planner: IN subquery outer expression must be a column")
		}
		leftKeys = append(leftKeys, cr.Idx)
	}
	for _, co := range corrOuter {
		idx, err := outerScope.resolve(co)
		if err != nil {
			return nil, err
		}
		leftKeys = append(leftKeys, idx)
	}
	rightKeys := make([]int, len(leftKeys))
	for i := range rightKeys {
		rightKeys[i] = i
	}
	kind := plan.SemiJoin
	if su.anti {
		kind = plan.AntiJoin
	}
	rel, err := p.joinRelations(outer, innerRel, leftKeys, rightKeys, kind, nil)
	// NOT IN needs its NULL facts only where x or y can be NULL.
	if err == nil && su.anti && su.outerExpr != nil && !(outer.cols[leftKeys[0]].notNull && innerRel.cols[0].notNull) {
		rel, err = p.notInNulls(rel, inner, leftKeys)
	}
	if err != nil {
		return nil, err
	}
	// A semi or anti join keeps at most the rows it filters.
	rel.rows = math.Min(rel.rows, outer.rows)
	return rel, nil
}
