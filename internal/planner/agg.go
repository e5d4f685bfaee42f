package planner

import (
	"fmt"
	"slices"
	"strings"

	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// collectAggs finds the aggregate calls in an expression tree.
func collectAggs(e sqlparser.Expr, out *[]*sqlparser.FuncExpr, seen map[string]bool) {
	sqlparser.Inspect(e, func(x sqlparser.Expr) bool {
		f, ok := x.(*sqlparser.FuncExpr)
		if !ok {
			return true
		}
		if _, agg := expr.AggKindByName(f.Name); !agg {
			return true
		}
		if key := f.String(); !seen[key] {
			seen[key] = true
			*out = append(*out, f)
		}
		return false
	})
}

// planAggregation builds the (possibly two-phase) aggregation for a
// query, returning the aggregated relation and the aggScope that later
// expressions bind against. A nil aggScope means the query has no
// aggregation.
func (p *Planner) planAggregation(rel *relation, stmt *sqlparser.SelectStmt) (*relation, *aggScope, error) {
	var aggCalls []*sqlparser.FuncExpr
	seen := map[string]bool{}
	for _, item := range stmt.Projections {
		if !item.Star {
			collectAggs(item.Expr, &aggCalls, seen)
		}
	}
	collectAggs(stmt.Having, &aggCalls, seen)
	for _, o := range stmt.OrderBy {
		collectAggs(o.Expr, &aggCalls, seen)
	}
	if len(aggCalls) == 0 && len(stmt.GroupBy) == 0 {
		if stmt.Having != nil {
			return nil, nil, fmt.Errorf("planner: HAVING requires aggregation")
		}
		return rel, nil, nil
	}

	b := p.binder(rel.scope())
	// Bind group expressions.
	groupExprs := make([]expr.Expr, len(stmt.GroupBy))
	groupStrs := make([]string, len(stmt.GroupBy))
	keys := make([]types.Column, len(stmt.GroupBy), len(stmt.GroupBy)+len(aggCalls))
	for i, g := range stmt.GroupBy {
		bound, err := b.bind(g)
		if err != nil {
			return nil, nil, err
		}
		groupExprs[i], groupStrs[i] = bound, g.String()
		var name string
		if id, ok := g.(*sqlparser.Ident); ok {
			name = strings.ToLower(id.Column())
		} else {
			name = fmt.Sprintf("key%d", i+1)
		}
		keys[i] = kindToColumn(name, bound)
	}
	// Bind aggregate specs.
	specs := make([]expr.AggSpec, len(aggCalls))
	aggStrs := make([]string, len(aggCalls))
	hasDistinct := false
	for i, call := range aggCalls {
		kind, _ := expr.AggKindByName(call.Name)
		spec := expr.AggSpec{Kind: kind, Distinct: call.Distinct}
		if call.Star {
			if kind != expr.AggCount {
				return nil, nil, fmt.Errorf("planner: %s(*) is not valid", call.Name)
			}
			spec.Kind = expr.AggCountStar
		} else {
			if len(call.Args) != 1 {
				return nil, nil, fmt.Errorf("planner: aggregate %s takes one argument", call.Name)
			}
			arg, err := b.bind(call.Args[0])
			if err != nil {
				return nil, nil, err
			}
			spec.Arg = arg
			if kind == expr.AggCount && !call.Distinct && notNull(arg, rel.cols) {
				spec = expr.AggSpec{Kind: expr.AggCountStar} // count(c) of a NOT NULL c
			}
		}
		if spec.Distinct {
			hasDistinct = true
		}
		specs[i] = spec
		aggStrs[i] = call.String()
	}

	outSchema := aggSchema(keys, specs, func(i int) string { return strings.ToLower(aggCalls[i].Name) })
	scp := &aggScope{groups: groupStrs, aggs: aggStrs, schema: outSchema}

	outRel := p.buildAggNodes(rel, groupExprs, specs, outSchema, hasDistinct)
	// A group column carries its key's facts; of the aggregates only a
	// count is never NULL.
	outRel.cols = withFacts(schemaCols(outSchema), groupExprs, rel.cols)
	for i, s := range specs {
		outRel.cols[len(groupExprs)+i].notNull = s.Kind == expr.AggCount || s.Kind == expr.AggCountStar
	}
	// Apply HAVING.
	if stmt.Having != nil {
		hb := &binder{scope: outRel.scope(), aggScope: scp, subquery: p.SubqueryEval, params: p.paramBinder()}
		pred, err := hb.bind(stmt.Having)
		if err != nil {
			return nil, nil, err
		}
		outRel = filtered(outRel, pred)
	}
	return outRel, scp, nil
}

func schemaCols(s *types.Schema) []scopeCol {
	cols := make([]scopeCol, s.Len())
	for i, c := range s.Columns {
		cols[i] = scopeCol{name: strings.ToLower(c.Name)}
	}
	return cols
}

// aggSchema is the output of an aggregation: its group keys, then a
// column per aggregate, column i named name(i). It appends to keys.
func aggSchema(keys []types.Column, specs []expr.AggSpec, name func(i int) string) *types.Schema {
	keys = slices.Grow(keys, len(specs))
	for i, s := range specs {
		keys = append(keys, types.Column{Name: name(i), Kind: s.ResultKind()})
	}
	return &types.Schema{Columns: keys}
}

// buildAggNodes chooses one-phase vs two-phase aggregation based on the
// input distribution (§3).
func (p *Planner) buildAggNodes(rel *relation, groups []expr.Expr, specs []expr.AggSpec, outSchema *types.Schema, hasDistinct bool) *relation {
	nGroups := len(groups)
	estGroups := groupRows(rel, groups)

	// Can the aggregation complete locally? Yes if each segment holds
	// whole groups: hashed on a subset of the group columns.
	local := false
	var outDistCols []int
	if rel.dist.kind == distHash && nGroups > 0 {
		for _, dc := range rel.dist.cols {
			for gi, g := range groups {
				if cr, ok := g.(*expr.ColRef); ok && p.equal(rel, cr.Idx, dc) {
					outDistCols = append(outDistCols, gi)
					break
				}
			}
		}
		local = len(outDistCols) == len(rel.dist.cols)
	}
	if rel.dist.kind == distQD {
		node := &plan.HashAgg{Input: rel.node, Phase: plan.AggSingle, Groups: groups, Aggs: specs, Schema: outSchema}
		return &relation{node: node, dist: distInfo{kind: distQD}, rows: estGroups}
	}
	if local && !p.DisableColocation {
		node := &plan.HashAgg{Input: rel.node, Phase: plan.AggSingle, Groups: groups, Aggs: specs, Schema: outSchema}
		return &relation{node: node, dist: distInfo{kind: distHash, cols: outDistCols}, rows: estGroups}
	}
	if hasDistinct {
		// DISTINCT aggregates need whole groups in one place: move the
		// data first, aggregate once.
		// Computed group keys, or none, gather to the QD.
		moved, dist := p.gatherToQD(rel), distInfo{kind: distQD}
		if groupCols, ok := plainCols(groups); ok && nGroups > 0 {
			moved, dist = p.redistributeCols(rel, groupCols), distInfo{kind: distHash, cols: upTo(nGroups)}
		}
		node := &plan.HashAgg{Input: moved.node, Phase: plan.AggSingle, Groups: groups, Aggs: specs, Schema: outSchema}
		return &relation{node: node, dist: dist, rows: estGroups}
	}

	// Two-phase: partial on every segment, motion, final.
	partialSpecs, lowering := lowerPartial(specs)
	partialSchema := aggSchema(outSchema.Columns[:nGroups:nGroups], partialSpecs, func(i int) string { return fmt.Sprintf("partial%d", i) })
	partial := &plan.HashAgg{Input: rel.node, Phase: plan.AggPartial, Groups: groups, Aggs: partialSpecs, Schema: partialSchema}

	var motion *plan.Motion
	var finalDist distInfo
	if nGroups > 0 {
		hashCols := upTo(nGroups)
		motion = &plan.Motion{Type: plan.RedistributeMotion, Input: partial, HashCols: hashCols}
		finalDist = distInfo{kind: distHash, cols: hashCols}
	} else {
		motion = &plan.Motion{Type: plan.GatherMotion, Input: partial}
		finalDist = distInfo{kind: distQD}
	}

	// Final phase re-aggregates the partials.
	finalGroups := make([]expr.Expr, nGroups)
	for i := range finalGroups {
		finalGroups[i] = refCol(partialSchema.Columns, i)
	}
	finalSpecs := make([]expr.AggSpec, 0, len(partialSpecs))
	for pi, ps := range partialSpecs {
		kind := ps.Kind
		switch ps.Kind {
		case expr.AggCount, expr.AggCountStar:
			kind = expr.AggSum
		}
		finalSpecs = append(finalSpecs, expr.AggSpec{Kind: kind, Arg: refCol(partialSchema.Columns, nGroups+pi)})
	}
	finalSchema := aggSchema(partialSchema.Columns[:nGroups:nGroups], finalSpecs, func(i int) string { return fmt.Sprintf("final%d", i) })
	final := &plan.HashAgg{Input: motion, Phase: plan.AggFinal, Groups: finalGroups, Aggs: finalSpecs, Schema: finalSchema}

	// Reassemble the original aggregate order (AVG becomes sum/count).
	projExprs := make([]expr.Expr, 0, outSchema.Len())
	for i := 0; i < nGroups; i++ {
		projExprs = append(projExprs, refCol(finalSchema.Columns, i))
	}
	for oi, lw := range lowering {
		if specs[oi].Kind == expr.AggAvg {
			sumCol := nGroups + lw[0]
			cntCol := nGroups + lw[1]
			sumRef := &expr.Cast{E: &expr.ColRef{Idx: sumCol, K: finalSchema.Columns[sumCol].Kind}, To: types.KindFloat64}
			cntRef := &expr.ColRef{Idx: cntCol, K: types.KindInt64}
			projExprs = append(projExprs, expr.NewBinOp(expr.OpDiv, sumRef, cntRef))
		} else {
			col := nGroups + lw[0]
			projExprs = append(projExprs, &expr.ColRef{Idx: col, K: finalSchema.Columns[col].Kind})
		}
	}
	var node plan.Node = final
	if needsReassembly(specs, lowering) {
		node = &plan.Project{Input: final, Exprs: projExprs, Schema: outSchema}
	}
	return &relation{node: node, dist: finalDist, rows: estGroups}
}

// needsReassembly reports whether the final phase's outputs are not
// already the query's aggregates in order: an AVG is divided out of two
// of them, and two aggregates may read one.
func needsReassembly(specs []expr.AggSpec, lowering [][]int) bool {
	for i, s := range specs {
		if s.Kind == expr.AggAvg || lowering[i][0] != i {
			return true
		}
	}
	return false
}

// lowerPartial produces the partial-phase specs and a map from original
// aggregate index to its partial output offsets. An aggregate the partial
// phase already computes — same function, same DISTINCT flag, same
// argument as rendered — is not computed again: sum(x) serves sum(x) and
// avg(x) alike, so TPC-H Q1 carries 9 partials, not 11.
func lowerPartial(specs []expr.AggSpec) ([]expr.AggSpec, [][]int) {
	var out []expr.AggSpec
	slot := func(s expr.AggSpec) int {
		for i, have := range out {
			if have.String() == s.String() {
				return i
			}
		}
		out = append(out, s)
		return len(out) - 1
	}
	lowering := make([][]int, len(specs))
	for i, s := range specs {
		if s.Kind == expr.AggAvg {
			lowering[i] = []int{
				slot(expr.AggSpec{Kind: expr.AggSum, Arg: s.Arg}),
				slot(expr.AggSpec{Kind: expr.AggCount, Arg: s.Arg}),
			}
			continue
		}
		lowering[i] = []int{slot(s)}
	}
	return out, lowering
}

// plainCols extracts column indexes when every expression is a bare
// column reference.
func plainCols(exprs []expr.Expr) ([]int, bool) {
	out := make([]int, len(exprs))
	for i, e := range exprs {
		cr, ok := e.(*expr.ColRef)
		if !ok {
			return nil, false
		}
		out[i] = cr.Idx
	}
	return out, true
}
