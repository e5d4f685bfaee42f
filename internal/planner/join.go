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

// joinEdge is a WHERE conjunct equating two columns: an equi-join
// predicate between units a and b, or a filter of one unit when a == b.
// l and r are the columns' ids, l of unit a and r of unit b.
type joinEdge struct {
	a, b int
	l, r colID
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
// one plan. The result lists the units' columns in join order
// (fromOrder restores FROM order).
func (p *Planner) orderJoins(units []*fromUnit, edges []joinEdge) (*relation, error) {
	if len(units) == 1 {
		return units[0].rel, nil
	}
	merged := make([]bool, len(units))
	used := make([]bool, len(edges))
	var cur *relation
	for n := 0; n < len(units); n++ {
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
				if in(u) {
					continue
				}
				// The unused edges between left and u, each key found in
				// its relation by id.
				var es, l, r []int
				for ei, e := range edges {
					x, y := e.l, e.r
					switch {
					case used[ei]:
						continue
					case in(e.b) && e.a == u:
						x, y = y, x
					case !in(e.a) || e.b != u:
						continue
					}
					es, l, r = append(es, ei), append(l, left.pos(x)), append(r, units[u].rel.pos(y))
				}
				if len(es) == 0 {
					continue
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
				cur, merged[next] = units[next].rel, true
				continue
			}
		}
		if cur == nil {
			cur, merged[from] = units[from].rel, true
			n++
		}
		for _, ei := range bestEdges {
			used[ei] = true
		}
		l, r := cur, units[next].rel
		if bytes(l) < bytes(r) {
			// Build on cur: the next unit's columns come first.
			l, r, lk, rk = r, l, rk, lk
		}
		var err error
		if cur, err = p.joinRelations(l, r, lk, rk, plan.InnerJoin, nil); err != nil {
			return nil, err
		}
		merged[next] = true
	}
	// Any unused edges between two units become residual filters
	// (redundant cycle edges); one within a unit already filters it.
	for ei, e := range edges {
		if used[ei] || e.a == e.b {
			continue
		}
		bound, err := p.binder(cur.scope()).bind(e.raw)
		if err != nil {
			return nil, err
		}
		cur = filtered(cur, bound)
	}
	return cur, nil
}

// fromOrder returns the permutation that lists rel's columns unit by unit
// in FROM order, each found by id, or nil when they already are.
func fromOrder(units []*fromUnit, rel *relation) []int {
	var perm []int
	for _, u := range units {
		for _, c := range u.rel.cols {
			perm = append(perm, rel.pos(c.id))
		}
	}
	if slices.IsSorted(perm) {
		return nil
	}
	return perm
}

// unite puts the two columns of each edge in one class once both their
// units are planned (DESIGN.md §19, "One column identity").
func (p *Planner) unite(units []*fromUnit, edges []joinEdge) {
	for _, e := range edges {
		if a, b := units[e.a].rel, units[e.b].rel; a != nil && b != nil {
			p.equate(a, a.pos(e.l), b, b.pos(e.r))
		}
	}
}

// equate puts column i of a and column j of b in one class when their
// kinds hash alike (types.Hashable): a class promises one placement, and
// a DOUBLE equal to a DECIMAL by value is not equal to it by hash.
func (p *Planner) equate(a *relation, i int, b *relation, j int) {
	if types.Hashable(a.schema().Columns[i].Kind, b.schema().Columns[j].Kind) {
		p.st.union(a.cols[i].id, b.cols[j].id)
	}
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

	var l, r *relation
	if len(leftKeys) > 0 {
		l, r = p.placeJoinSides(left, right, leftKeys, rightKeys, kind)
	} else {
		// No equi keys: broadcast the inner side, nested loop join.
		l, r = left, p.broadcast(right)
	}
	schema := l.schema().Concat(r.schema())
	if kind == plan.SemiJoin || kind == plan.AntiJoin {
		schema = l.schema()
	}
	if len(leftKeys) == 0 {
		node := &plan.NestLoopJoin{Kind: kind, Left: l.node, Right: r.node, Pred: residual, Schema: schema}
		return &relation{node: node, cols: cols, dist: l.dist, rows: outRows}, nil
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
	return &relation{node: node, cols: cols, dist: outDist, rows: outRows}, nil
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
// (up to the block's column classes), returning the pairing of dist col
// index -> key index, or nil.
func (p *Planner) hashedOnKeys(rel *relation, keys []int) []int {
	if rel.dist.kind != distHash {
		return nil
	}
	pairing := make([]int, len(rel.dist.cols))
	for i, dc := range rel.dist.cols {
		if pairing[i] = slices.IndexFunc(keys, func(k int) bool { return p.equal(rel, k, dc) }); pairing[i] < 0 {
			return nil
		}
	}
	return pairing
}

// placeJoinSides decides the motions for a hash join, comparing the
// viable placements by the estimated bytes they move.
func (p *Planner) placeJoinSides(left, right *relation, leftKeys, rightKeys []int, kind plan.JoinKind) (*relation, *relation) {
	nseg := float64(p.NumSegments)
	lAligned := p.hashedOnKeys(left, leftKeys)
	rAligned := p.hashedOnKeys(right, rightKeys)
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
	return moved(rel, &plan.Motion{Type: plan.RedistributeMotion, HashCols: cols}, distInfo{kind: distHash, cols: cols})
}

// broadcast replicates a relation to every segment.
func (p *Planner) broadcast(rel *relation) *relation {
	if rel.dist.kind == distReplicated {
		return rel
	}
	return moved(rel, &plan.Motion{Type: plan.BroadcastMotion}, distInfo{kind: distReplicated})
}

// moved is rel sent through motion m to lie as dist says, from the
// master's one copy when that is where rel is.
func moved(rel *relation, m *plan.Motion, dist distInfo) *relation {
	m.Input = rel.node
	if rel.dist.kind == distQD {
		m.Input = &plan.SenderHint{Input: rel.node, Segments: []int{plan.QDSegment}}
	}
	return &relation{node: m, cols: rel.cols, dist: dist, rows: rel.rows}
}

// semiUnit is an EXISTS / IN-subquery predicate destined to become a
// semi or anti join.
type semiUnit struct {
	sub  *sqlparser.SelectStmt
	anti bool
	// outerExpr is IN's operand, paired with the subquery's one output
	// column; nil for EXISTS.
	outerExpr sqlparser.Expr
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
	var local, outerKeys []sqlparser.Expr // outerKeys: the IN expression, then the correlated outer columns
	if su.outerExpr != nil {
		outerKeys = append(outerKeys, su.outerExpr)
	}
	var corrInner []*sqlparser.Ident
	for _, c := range conjuncts(sub.Where) {
		if l, r, ok := equiJoinSides(c); ok {
			if subScope.binds(l) {
				l, r = r, l
			}
			// A correlated equality has one side that only resolves in
			// the outer scope and one that resolves locally.
			if outerScope.index(l) >= 0 && subScope.binds(r) && !subScope.binds(l) {
				outerKeys, corrInner = append(outerKeys, l), append(corrInner, r)
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
	// Outer join keys, bound over the outer relation.
	var leftKeys []int
	for _, e := range outerKeys {
		bound, err := p.binder(outerScope).bind(e)
		if err != nil {
			return nil, err
		}
		cr, ok := bound.(*expr.ColRef)
		if !ok {
			return nil, fmt.Errorf("planner: IN subquery outer expression must be a column")
		}
		leftKeys = append(leftKeys, cr.Idx)
	}
	kind := plan.SemiJoin
	if su.anti {
		kind = plan.AntiJoin
	}
	rel, err := p.joinRelations(outer, innerRel, leftKeys, upTo(len(leftKeys)), kind, nil)
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
