package planner

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// planOutput handles the projection, DISTINCT, ORDER BY and LIMIT of a
// query. ORDER BY keys that are not in the select list become hidden
// projection columns, sorted on and projected away afterwards.
func (p *Planner) planOutput(rel *relation, aggScp *aggScope, stmt *sqlparser.SelectStmt) (*relation, error) {
	items, err := expandStars(stmt.Projections, rel, aggScp)
	if err != nil {
		return nil, err
	}
	b := &binder{scope: rel.scope(), aggScope: aggScp, subquery: p.SubqueryEval, params: p.paramBinder()}
	var exprs []expr.Expr
	var outCols []types.Column
	identity := aggScp == nil && len(items) == rel.schema().Len()
	for i, item := range items {
		bound, err := b.bind(item.Expr)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, bound)
		name := outputName(item, i)
		outCols = append(outCols, kindToColumn(name, bound))
		if cr, ok := bound.(*expr.ColRef); !ok || cr.Idx != i {
			identity = false
		}
	}

	// Resolve ORDER BY keys against the projection.
	var sortKeys []plan.OrderKey
	hidden := 0
	for _, o := range stmt.OrderBy {
		idx := -1
		switch v := o.Expr.(type) {
		case *sqlparser.NumLit:
			n, err := strconv.Atoi(v.S)
			if err != nil || n < 1 || n > len(items) {
				return nil, fmt.Errorf("planner: ORDER BY position %s out of range", v.S)
			}
			idx = n - 1
		case *sqlparser.Ident:
			if v.Qualifier() == "" {
				for i, item := range items {
					if strings.EqualFold(outputName(item, i), v.Column()) {
						idx = i
						break
					}
				}
			}
		}
		if idx == -1 {
			// Match against the projection syntax.
			s := o.Expr.String()
			idx = slices.IndexFunc(items, func(item sqlparser.SelectItem) bool { return item.Expr.String() == s })
		}
		if idx == -1 {
			// Hidden sort column.
			bound, err := b.bind(o.Expr)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, bound)
			outCols = append(outCols, kindToColumn(fmt.Sprintf("sort%d", hidden), bound))
			idx = len(exprs) - 1
			hidden++
			identity = false
		}
		sortKeys = append(sortKeys, plan.OrderKey{Col: idx, Desc: o.Desc})
	}

	outSchema := &types.Schema{Columns: outCols}
	out := &relation{node: rel.node, cols: withFacts(schemaCols(outSchema), exprs, rel.cols), dist: rel.dist, rows: rel.rows, direct: rel.direct, directKeys: rel.directKeys}
	if !identity {
		out.node = &plan.Project{Input: rel.node, Exprs: exprs, Schema: outSchema}
		out.dist = projectDist(rel.dist, exprs)
	}

	if stmt.Distinct {
		if hidden > 0 {
			return nil, fmt.Errorf("planner: for SELECT DISTINCT, ORDER BY expressions must appear in the select list")
		}
		out = p.planDistinct(out)
	}
	if len(sortKeys) == 0 && stmt.Limit == nil && stmt.Offset == nil {
		return out, nil
	}

	// ORDER BY / LIMIT: results converge on the QD.
	var limit, offset int64 = -1, 0
	if stmt.Limit != nil {
		limit = *stmt.Limit
	}
	if stmt.Offset != nil {
		offset = *stmt.Offset
	}
	if out.dist.kind != distQD {
		// Pre-limit on each segment: sorting locally and keeping the
		// top (N+offset) rows bounds what the gather moves.
		if limit >= 0 && limit+offset <= 100000 {
			var node plan.Node = out.node
			if len(sortKeys) > 0 {
				node = &plan.Sort{Input: node, Keys: sortKeys}
			}
			node = &plan.Limit{Input: node, N: limit + offset}
			out = &relation{node: node, cols: out.cols, dist: out.dist, rows: out.rows}
		}
		out = p.gatherToQD(out)
	}
	var node plan.Node = out.node
	if len(sortKeys) > 0 {
		node = &plan.Sort{Input: node, Keys: sortKeys}
	}
	if limit >= 0 || offset > 0 {
		n := limit
		if n < 0 {
			n = 1 << 62
		}
		node = &plan.Limit{Input: node, N: n, Offset: offset}
	}
	if hidden > 0 {
		visible := outCols[:len(outCols)-hidden]
		exprs := make([]expr.Expr, len(visible))
		for i := range visible {
			exprs[i] = refCol(visible, i)
		}
		node = &plan.Project{Input: node, Exprs: exprs, Schema: &types.Schema{Columns: visible}}
	}
	res := &relation{node: node, cols: out.cols[:len(out.cols)-hidden], dist: distInfo{kind: distQD}, rows: out.rows}
	return res, nil
}

// expandStars resolves * and t.* projection items.
func expandStars(items []sqlparser.SelectItem, rel *relation, aggScp *aggScope) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		if aggScp != nil {
			return nil, fmt.Errorf("planner: SELECT * is not valid with GROUP BY")
		}
		for i, c := range rel.cols {
			if item.TableStar != "" && !strings.EqualFold(c.qual, item.TableStar) {
				continue
			}
			name := c.name
			if name == "" {
				name = rel.schema().Columns[i].Name
			}
			parts := []string{name}
			if c.qual != "" {
				parts = []string{c.qual, name}
			}
			out = append(out, sqlparser.SelectItem{Expr: &sqlparser.Ident{Parts: parts}})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("planner: empty select list")
	}
	return out, nil
}

// projectDist maps a distribution through a projection.
func projectDist(d distInfo, exprs []expr.Expr) distInfo {
	if d.kind != distHash {
		return d
	}
	var mapped []int
	for _, dc := range d.cols {
		found := slices.IndexFunc(exprs, func(e expr.Expr) bool {
			cr, ok := e.(*expr.ColRef)
			return ok && cr.Idx == dc
		})
		if found == -1 {
			// The partitioning column was projected away: rows stay
			// where they are but the key is gone.
			return distInfo{kind: distRandom}
		}
		mapped = append(mapped, found)
	}
	return distInfo{kind: distHash, cols: mapped}
}

// planDistinct deduplicates the relation globally: a grouping on every
// column with no aggregates, planned as GROUP BY is.
func (p *Planner) planDistinct(rel *relation) *relation {
	cols := rel.schema().Columns
	groups := make([]expr.Expr, len(cols))
	for i := range groups {
		groups[i] = refCol(cols, i)
	}
	out := p.buildAggNodes(rel, groups, nil, rel.schema(), false)
	out.cols = rel.cols
	return out
}
