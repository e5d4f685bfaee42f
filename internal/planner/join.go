package planner

import (
	"fmt"
	"math"

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

// orderJoins greedily joins the units: start with the smallest relation,
// repeatedly pick the connected unit whose join yields the smallest
// estimated output. The classic approach for bushy-averse MPP planners;
// cost-based in the sense of §3 ("evaluates potential plans and selects
// the one that leads to the most efficient execution"). Candidates are
// tried in FROM order and only a strictly cheaper one displaces the
// best so far, so a tie goes to the unit written first: one statement
// over one snapshot has one plan.
func (p *Planner) orderJoins(units []*fromUnit, edges []joinEdge) (*relation, error) {
	if len(units) == 1 {
		return units[0].rel, nil
	}
	// Start from the smallest relation.
	start := 0
	for i := range units {
		if units[i].rel.rows < units[start].rel.rows {
			start = i
		}
	}
	cur := units[start].rel
	merged := map[int]bool{start: true}
	usedEdges := map[int]bool{}

	for len(merged) < len(units) {
		bestUnit, bestCost := -1, math.MaxFloat64
		var bestEdges []int
		for u := range units {
			if merged[u] {
				continue
			}
			var es []int
			for ei, e := range edges {
				if usedEdges[ei] {
					continue
				}
				if (merged[e.a] && e.b == u) || (merged[e.b] && e.a == u) {
					es = append(es, ei)
				}
			}
			if len(es) == 0 {
				continue
			}
			out := estimateJoinRows(cur.rows, units[u].rel.rows, len(es))
			if out < bestCost {
				bestCost, bestUnit, bestEdges = out, u, es
			}
		}
		if bestUnit == -1 {
			// No connecting edge: cross join with the smallest remaining.
			for u := range units {
				if !merged[u] && (bestUnit == -1 || units[u].rel.rows < units[bestUnit].rel.rows) {
					bestUnit = u
				}
			}
		}
		next := units[bestUnit].rel
		// Resolve key columns for the chosen edges against (cur, next).
		var leftKeys, rightKeys []int
		for _, ei := range bestEdges {
			e := edges[ei]
			usedEdges[ei] = true
			li, lerr := cur.scope().resolve(e.l)
			ri, rerr := next.scope().resolve(e.r)
			if lerr != nil || rerr != nil {
				li, lerr = cur.scope().resolve(e.r)
				ri, rerr = next.scope().resolve(e.l)
			}
			if lerr != nil || rerr != nil {
				return nil, fmt.Errorf("planner: cannot resolve join predicate %s", e.raw)
			}
			leftKeys = append(leftKeys, li)
			rightKeys = append(rightKeys, ri)
		}
		joined, err := p.joinRelations(cur, next, leftKeys, rightKeys, plan.InnerJoin, nil)
		if err != nil {
			return nil, err
		}
		cur = joined
		merged[bestUnit] = true
	}
	// Any unused edges become residual filters (redundant cycle edges).
	for ei, e := range edges {
		if usedEdges[ei] {
			continue
		}
		b := &binder{scope: cur.scope(), subquery: p.scalarSubquery(), params: p.paramBinder()}
		bound, err := b.bind(e.raw)
		if err != nil {
			return nil, err
		}
		cur = &relation{
			node: &plan.Select{Input: cur.node, Pred: bound},
			cols: cur.cols, dist: cur.dist, rows: cur.rows * 0.3,
		}
	}
	return cur, nil
}

// joinRelations builds the physical join with the motions it needs,
// exploiting colocation (§2.3): two relations hash-distributed on their
// join keys join locally without any data movement. When movement is
// unavoidable the planner costs the alternatives — redistribute one
// side, broadcast the smaller side, or redistribute both — and picks the
// cheapest (§3's cost-based optimization).
func (p *Planner) joinRelations(left, right *relation, leftKeys, rightKeys []int, kind plan.JoinKind, residual expr.Expr) (*relation, error) {
	leftKeys, rightKeys, residual = hashableKeys(left, right, leftKeys, rightKeys, residual)
	outRows := estimateJoinRows(left.rows, right.rows, len(leftKeys))

	if len(leftKeys) == 0 {
		// No equi keys: broadcast the inner side, nested loop join.
		inner := p.broadcast(right)
		schema := left.schema().Concat(inner.schema())
		if kind == plan.SemiJoin || kind == plan.AntiJoin {
			schema = left.schema()
		}
		node := &plan.NestLoopJoin{Kind: kind, Left: left.node, Right: inner.node, Pred: residual, Schema: schema}
		cols := append(append([]scopeCol{}, left.cols...), inner.cols...)
		if kind == plan.SemiJoin || kind == plan.AntiJoin {
			cols = left.cols
		}
		return &relation{node: node, cols: cols, dist: left.dist, rows: outRows, equiv: left.equiv}, nil
	}

	l, r := p.placeJoinSides(left, right, leftKeys, rightKeys, kind)

	schema := l.schema().Concat(r.schema())
	cols := append(append([]scopeCol{}, l.cols...), r.cols...)
	if kind == plan.SemiJoin || kind == plan.AntiJoin {
		schema = l.schema()
		cols = l.cols
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
// viable placements by estimated tuple movement.
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
			left = p.redistribute(left, leftKeys)
		}
		return left, right
	}
	if left.dist.kind == distReplicated {
		if right.dist.kind == distQD {
			right = p.redistribute(right, rightKeys)
		}
		return left, right
	}

	type option struct {
		cost     float64
		leftFix  func() *relation
		rightFix func() *relation
	}
	keep := func(r *relation) func() *relation { return func() *relation { return r } }
	var opts []option
	lMovable := left.dist.kind != distQD
	rMovable := right.dist.kind != distQD
	// Colocated: free.
	if lAligned != nil && rAligned != nil && pairingsAlign(lAligned, rAligned) && lMovable && rMovable {
		opts = append(opts, option{0, keep(left), keep(right)})
	}
	// Keep left, redistribute right to match left's key pairing.
	if lAligned != nil && lMovable {
		aligned := make([]int, len(lAligned))
		for i, ki := range lAligned {
			aligned[i] = rightKeys[ki]
		}
		rr := right
		opts = append(opts, option{right.rows, keep(left), func() *relation { return p.redistributeCols(rr, aligned) }})
	}
	// Keep right, redistribute left to match (probe side moves).
	if rAligned != nil && rMovable {
		aligned := make([]int, len(rAligned))
		for i, ki := range rAligned {
			aligned[i] = leftKeys[ki]
		}
		ll := left
		opts = append(opts, option{left.rows, func() *relation { return p.redistributeCols(ll, aligned) }, keep(right)})
	}
	// Broadcast the build side; the probe stays wherever it is (valid
	// for every join kind — each probe row sees every build row).
	if lMovable {
		rr := right
		opts = append(opts, option{right.rows * nseg, keep(left), func() *relation { return p.broadcast(rr) }})
	}
	// Broadcast the probe side (inner joins only: outer/semi/anti would
	// duplicate probe-side rows).
	if kind == plan.InnerJoin && rMovable {
		ll := left
		opts = append(opts, option{left.rows * nseg, func() *relation { return p.broadcast(ll) }, keep(right)})
	}
	// Redistribute both on the join keys.
	opts = append(opts, option{left.rows + right.rows,
		func() *relation { return p.redistribute(left, leftKeys) },
		func() *relation { return p.redistribute(right, rightKeys) }})

	best := opts[0]
	for _, o := range opts[1:] {
		if o.cost < best.cost {
			best = o
		}
	}
	return best.leftFix(), best.rightFix()
}

func pairingsAlign(lp, rp []int) bool {
	if len(lp) != len(rp) {
		return false
	}
	for i := range lp {
		if lp[i] != rp[i] {
			return false
		}
	}
	return true
}

// redistribute hashes a relation across the cluster on the given key
// columns.
func (p *Planner) redistribute(rel *relation, keys []int) *relation {
	return p.redistributeCols(rel, keys)
}

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
func (p *Planner) asSemiUnit(c sqlparser.Expr, units []*fromUnit) (*semiUnit, bool, error) {
	switch v := c.(type) {
	case *sqlparser.ExistsExpr:
		return &semiUnit{sub: v.Sub, anti: v.Negate}, true, nil
	case *sqlparser.UnExpr:
		if v.Op == "not" {
			if ex, ok := v.E.(*sqlparser.ExistsExpr); ok {
				return &semiUnit{sub: ex.Sub, anti: !ex.Negate}, true, nil
			}
		}
	case *sqlparser.InExpr:
		if v.Sub != nil {
			return &semiUnit{sub: v.Sub, anti: v.Negate, outerExpr: v.E}, true, nil
		}
	}
	return nil, false, nil
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
	var localWhere sqlparser.Expr
	var corrOuter, corrInner []*sqlparser.Ident
	if sub.Where != nil {
		for _, c := range conjuncts(sub.Where) {
			if l, r, ok := equiJoinSides(c); ok {
				_, lOuterErr := outerScope.resolve(l)
				_, rOuterErr := outerScope.resolve(r)
				// A correlated equality has one side that only resolves
				// in the outer scope and one that resolves locally.
				if lOuterErr == nil && subScope.binds(r) && !subScope.binds(l) {
					corrOuter = append(corrOuter, l)
					corrInner = append(corrInner, r)
					continue
				}
				if rOuterErr == nil && subScope.binds(l) && !subScope.binds(r) {
					corrOuter = append(corrOuter, r)
					corrInner = append(corrInner, l)
					continue
				}
			}
			if localWhere == nil {
				localWhere = c
			} else {
				localWhere = &sqlparser.BinExpr{Op: "and", L: localWhere, R: c}
			}
		}
	}
	// Plan the subquery with correlated columns appended to its
	// projection so they become join keys.
	inner := &sqlparser.SelectStmt{From: sub.From, Where: localWhere}
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
	bOuter := &binder{scope: outerScope, subquery: p.scalarSubquery(), params: p.paramBinder()}
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
	if err == nil && su.anti && su.outerExpr != nil {
		rel, err = p.notInNulls(rel, inner, leftKeys)
	}
	if err != nil {
		return nil, err
	}
	// A semi or anti join keeps at most the rows it filters.
	rel.rows = math.Min(rel.rows, outer.rows)
	return rel, nil
}
