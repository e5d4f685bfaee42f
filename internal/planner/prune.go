package planner

import (
	"strings"

	"hawq/internal/sqlparser"
)

// colRefs is what one query block references of its FROM items: the
// planner's answer to "which columns does this scan produce". It is
// computed from the syntax before any FROM item is resolved, so a base
// table enters the block already narrowed to the columns in it and every
// index above the scan — join keys, distribution columns — is an output
// position from the start. Nothing narrows a plan afterwards.
type colRefs struct {
	// star is set by SELECT *: every column of every FROM item.
	star bool
	// tables holds the lower-case qualifiers of t.* items.
	tables map[string]bool
	// idents are the block's identifiers, from every clause (select
	// list, WHERE, GROUP BY, HAVING, ORDER BY, JOIN ... ON — less the ON
	// conjuncts planned inside a filtered base table, filterTable) plus the
	// free identifiers of its EXISTS / IN / scalar subqueries — the
	// correlated references those subqueries make to this block.
	idents []*sqlparser.Ident
	// on holds the placement of each explicit join's ON conjuncts
	// (placeOn), the one decision both idents and planExplicitJoin follow.
	on map[*sqlparser.Join]onPlacement
}

// blockRefs collects the column references of one SELECT block.
func (p *Planner) blockRefs(stmt *sqlparser.SelectStmt) *colRefs {
	r := &colRefs{}
	sub := func(s *sqlparser.SelectStmt) { r.idents = append(r.idents, p.freeIdents(s)...) }
	for _, item := range stmt.Projections {
		switch {
		case !item.Star:
			identRefs(item.Expr, &r.idents, sub)
		case item.TableStar == "":
			r.star = true
		default:
			if r.tables == nil {
				r.tables = map[string]bool{}
			}
			r.tables[strings.ToLower(item.TableStar)] = true
		}
	}
	identRefs(stmt.Where, &r.idents, sub)
	for _, g := range stmt.GroupBy {
		identRefs(g, &r.idents, sub)
	}
	identRefs(stmt.Having, &r.idents, sub)
	for _, o := range stmt.OrderBy {
		identRefs(o.Expr, &r.idents, sub)
	}
	var onClauses func(ref sqlparser.TableRef, nullable bool)
	onClauses = func(ref sqlparser.TableRef, nullable bool) {
		if j, ok := ref.(*sqlparser.Join); ok {
			on := p.placeOn(j, nullable)
			if r.on == nil {
				r.on = map[*sqlparser.Join]onPlacement{}
			}
			r.on[j] = on
			for _, c := range on.inBlock() {
				identRefs(c, &r.idents, sub)
			}
			onClauses(j.Left, nullable || j.Type == sqlparser.JoinRight || j.Type == sqlparser.JoinFull)
			onClauses(j.Right, nullable || j.Type == sqlparser.JoinLeft || j.Type == sqlparser.JoinFull)
		}
	}
	for _, ref := range stmt.From {
		onClauses(ref, false)
	}
	return r
}

// freeIdents returns the identifiers of a subquery that its own FROM
// items cannot bind: references to an enclosing block.
func (p *Planner) freeIdents(sub *sqlparser.SelectStmt) []*sqlparser.Ident {
	local := p.fromScope(sub.From)
	var free []*sqlparser.Ident
	for _, id := range p.blockRefs(sub).idents {
		if !local.binds(id) {
			free = append(free, id)
		}
	}
	return free
}

// used reports, per name, whether the block references a column of that
// name under the given (lower-case) qualifier.
func (r *colRefs) used(qual string, names []string) []bool {
	used := make([]bool, len(names))
	if r.star || r.tables[qual] {
		for i := range used {
			used[i] = true
		}
		return used
	}
	for _, id := range r.idents {
		if q := id.Qualifier(); q != "" && !strings.EqualFold(q, qual) {
			continue
		}
		for i, name := range names {
			if strings.EqualFold(id.Column(), name) {
				used[i] = true
			}
		}
	}
	return used
}

// pruneOutputs drops the select-list items of a derived table that the
// enclosing block never references, so the scans under the derived
// table narrow as well. The block is returned untouched when its row set
// or its ORDER BY depends on the whole select list.
func pruneOutputs(sel *sqlparser.SelectStmt, qual string, need *colRefs) *sqlparser.SelectStmt {
	if sel.Distinct || len(sel.OrderBy) > 0 {
		return sel
	}
	names := make([]string, len(sel.Projections))
	for i, item := range sel.Projections {
		if item.Star {
			return sel
		}
		names[i] = outputName(item, i)
	}
	used := need.used(qual, names)
	// Without GROUP BY the select list's aggregates are what make the
	// block one row instead of a scan: one of them always stays.
	if len(sel.GroupBy) == 0 && !hasAgg(sel.Having) {
		firstAgg, keepsAgg := -1, false
		for i, item := range sel.Projections {
			if hasAgg(item.Expr) {
				if firstAgg < 0 {
					firstAgg = i
				}
				keepsAgg = keepsAgg || used[i]
			}
		}
		if firstAgg >= 0 && !keepsAgg {
			used[firstAgg] = true
		}
	}
	var kept []sqlparser.SelectItem
	for i, item := range sel.Projections {
		if used[i] {
			item.Alias = names[i] // positional names must survive the shift
			kept = append(kept, item)
		}
	}
	switch len(kept) {
	case len(names):
		return sel
	case 0:
		kept = sel.Projections[:1] // a select list cannot be empty
	}
	cp := *sel
	cp.Projections = kept
	return &cp
}

// hasAgg reports whether an expression contains an aggregate call.
func hasAgg(e sqlparser.Expr) bool {
	var calls []*sqlparser.FuncExpr
	collectAggs(e, &calls, map[string]bool{})
	return len(calls) > 0
}

// fromScope builds a name-only scope over FROM items: enough to decide
// where an identifier binds without planning anything.
func (p *Planner) fromScope(from []sqlparser.TableRef) *scope {
	sc := &scope{}
	for _, ref := range from {
		sc.cols = append(sc.cols, p.refNames(ref)...)
	}
	return sc
}

// refNames lists the qualified column names one FROM item exposes. An
// unknown table exposes none; resolving the item for real reports it.
func (p *Planner) refNames(ref sqlparser.TableRef) []scopeCol {
	switch v := ref.(type) {
	case *sqlparser.TableName:
		desc, err := p.table(v.Name)
		if err != nil {
			return nil
		}
		return tableCols(desc.Schema.Names(), aliasOf(v))
	case *sqlparser.SubqueryRef:
		var names []string
		for i, item := range v.Select.Projections {
			if !item.Star {
				names = append(names, outputName(item, i))
				continue
			}
			for _, c := range p.fromScope(v.Select.From).cols {
				if item.TableStar == "" || strings.EqualFold(c.qual, item.TableStar) {
					names = append(names, c.name)
				}
			}
		}
		return tableCols(names, v.Alias)
	case *sqlparser.Join:
		return append(p.refNames(v.Left), p.refNames(v.Right)...)
	}
	return nil
}

// aliasOf returns the name a base table is visible under.
func aliasOf(t *sqlparser.TableName) string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// tableCols qualifies column names with a table alias, lower-casing both.
func tableCols(names []string, alias string) []scopeCol {
	qual := strings.ToLower(alias)
	cols := make([]scopeCol, len(names))
	for i, name := range names {
		cols[i] = scopeCol{qual: qual, name: strings.ToLower(name)}
	}
	return cols
}
