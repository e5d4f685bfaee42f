package planner

import (
	"fmt"
	"strings"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// fromUnit is one unplanned FROM item: a base table, a derived table, or
// an explicit join tree (planned as a unit).
type fromUnit struct {
	ref    sqlparser.TableRef
	rel    *relation // materialized lazily
	scope  *scope    // available before materialization for name tests
	pushed []sqlparser.Expr
	// desc and proj are set for base tables: proj lists the table column
	// indexes the block references, ascending — the scan's output. scope
	// covers exactly those, so every index resolved through it is an
	// output position, not a table position.
	desc *catalog.TableDesc
	proj []int
}

// planFromWhere resolves FROM, classifies WHERE conjuncts (pushdown, join
// edges, residual, subquery predicates), orders the joins and returns the
// joined relation.
func (p *Planner) planFromWhere(stmt *sqlparser.SelectStmt) (*relation, error) {
	if len(stmt.From) == 0 {
		// Master-only query: SELECT <exprs>.
		one := &plan.Values{Rows: []types.Row{{}}, Schema: types.NewSchema()}
		return &relation{node: one, dist: distInfo{kind: distQD}, rows: 1}, nil
	}
	need := p.blockRefs(stmt)
	var units []*fromUnit
	for _, ref := range stmt.From {
		u, err := p.newFromUnit(ref, need)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	// Classify WHERE conjuncts.
	var edges []joinEdge
	var residual []sqlparser.Expr
	var semis []*semiUnit
	if stmt.Where != nil {
		for _, c := range conjuncts(stmt.Where) {
			if su, ok, err := p.asSemiUnit(c, units); err != nil {
				return nil, err
			} else if ok {
				semis = append(semis, su)
				continue
			}
			refs, ambiguous := p.unitsReferenced(c, units)
			switch {
			case ambiguous:
				return nil, fmt.Errorf("planner: ambiguous column reference in %s", c)
			case len(refs) == 0:
				// Constant predicate: keep as residual on the first unit.
				residual = append(residual, c)
			case len(refs) == 1:
				units[refs[0]].pushed = append(units[refs[0]].pushed, c)
			default:
				if l, r, ok := equiJoinSides(c); ok && len(refs) == 2 {
					edges = append(edges, joinEdge{a: refs[0], b: refs[1], l: l, r: r, raw: c})
					continue
				}
				for _, u := range refs {
					if implied := p.orImplied(c, units, u); implied != nil {
						units[u].pushed = append(units[u].pushed, implied)
					}
				}
				residual = append(residual, c)
			}
		}
	}
	// Materialize relations with their pushed-down filters, then give each
	// subquery predicate that reads one unit alone to that unit.
	for _, u := range units {
		if err := p.materialize(u); err != nil {
			return nil, err
		}
	}
	var late []*semiUnit
	for _, su := range semis {
		home := -1
		if len(units) > 1 {
			home = p.semiHome(su, units)
		}
		if home < 0 {
			late = append(late, su)
			continue
		}
		rel, err := p.applySemiJoin(units[home].rel, su)
		if err != nil {
			return nil, err
		}
		units[home].rel = rel
	}
	rel, err := p.orderJoins(units, edges)
	if err != nil {
		return nil, err
	}
	// Residual predicates over the full join.
	for _, c := range residual {
		b := &binder{scope: rel.scope(), subquery: p.scalarSubquery(), params: p.paramBinder()}
		bound, err := b.bind(c)
		if err != nil {
			return nil, err
		}
		sel := selectivity(c)
		rel = &relation{
			node: &plan.Select{Input: rel.node, Pred: bound},
			cols: rel.cols, dist: rel.dist, rows: rel.rows * sel, direct: rel.direct, directKeys: rel.directKeys,
		}
	}
	// The remaining semi/anti-join predicates (EXISTS / IN subqueries).
	for _, su := range late {
		rel, err = p.applySemiJoin(rel, su)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func (p *Planner) scalarSubquery() func(*sqlparser.SelectStmt) (types.Datum, error) {
	if p.SubqueryEval == nil {
		return nil
	}
	return p.SubqueryEval
}

// newFromUnit resolves one FROM item far enough to answer name lookups,
// exposing only what the enclosing block references (need): a base
// table's referenced columns, a derived table's referenced outputs.
func (p *Planner) newFromUnit(ref sqlparser.TableRef, need *colRefs) (*fromUnit, error) {
	u := &fromUnit{ref: ref}
	switch v := ref.(type) {
	case *sqlparser.TableName:
		desc, err := p.Cat.LookupTable(p.Snap, v.Name)
		if err != nil {
			return nil, err
		}
		names := desc.Schema.Names()
		u.desc = desc
		u.proj = []int{}
		for i, used := range need.used(strings.ToLower(aliasOf(v)), names) {
			if used {
				u.proj = append(u.proj, i)
			}
		}
		u.scope = &scope{schema: desc.Schema.Project(u.proj)}
		u.scope.cols = tableCols(u.scope.schema.Names(), aliasOf(v))
	case *sqlparser.SubqueryRef:
		rel, err := p.planQuery(pruneOutputs(v.Select, strings.ToLower(v.Alias), need))
		if err != nil {
			return nil, err
		}
		cols := make([]scopeCol, len(rel.cols))
		for i := range rel.cols {
			cols[i] = scopeCol{qual: strings.ToLower(v.Alias), name: rel.cols[i].name}
		}
		u.rel = &relation{node: rel.node, cols: cols, dist: rel.dist, rows: rel.rows}
		u.scope = u.rel.scope()
	case *sqlparser.Join:
		rel, err := p.planExplicitJoin(v, need)
		if err != nil {
			return nil, err
		}
		u.rel = rel
		u.scope = rel.scope()
	default:
		return nil, fmt.Errorf("planner: unsupported FROM item %T", ref)
	}
	return u, nil
}

// materialize builds the relation for a base-table unit, binding pushed
// filters and running partition elimination.
func (p *Planner) materialize(u *fromUnit) error {
	if u.rel != nil {
		// Derived/join units: apply pushed filters as a Select.
		for _, c := range u.pushed {
			b := &binder{scope: u.rel.scope(), subquery: p.scalarSubquery(), params: p.paramBinder()}
			bound, err := b.bind(c)
			if err != nil {
				return err
			}
			u.rel = &relation{
				node: &plan.Select{Input: u.rel.node, Pred: bound},
				cols: u.rel.cols, dist: u.rel.dist,
				rows: u.rel.rows * selectivity(c),
			}
		}
		return nil
	}
	rel, err := p.scanRelation(u.desc, u.proj, u.pushed, u.scope)
	if err != nil {
		return err
	}
	u.rel = rel
	return nil
}

// scanRelation builds the (possibly partitioned) scan of one table,
// producing the table columns proj; sc names them in that order, so the
// bound filter, like everything above the scan, indexes output
// positions.
func (p *Planner) scanRelation(desc *catalog.TableDesc, proj []int, pushed []sqlparser.Expr, sc *scope) (*relation, error) {
	var filter expr.Expr
	sel := 1.0
	b := &binder{scope: sc, subquery: p.scalarSubquery(), params: p.paramBinder()}
	for _, c := range pushed {
		bound, err := b.bind(c)
		if err != nil {
			return nil, err
		}
		filter = conjoin(filter, bound)
		sel *= selectivity(c)
	}
	var node plan.Node
	var totalRows float64
	if desc.IsExternal() {
		pushedStr := ""
		if filter != nil {
			pushedStr = filter.String()
		}
		node = &plan.ExternalScan{
			Table: desc, Proj: proj, Filter: filter, PushedFilter: pushedStr,
			Schema: sc.schema, NumSegments: p.NumSegments,
		}
		totalRows = p.tableRows(desc)
	} else if desc.IsPartitionParent() {
		kids, err := p.Cat.PartitionChildren(p.Snap, desc.OID)
		if err != nil {
			return nil, err
		}
		var inputs []plan.Node
		for _, kid := range kids {
			if !p.DisablePartitionElim && p.partitionPruned(kid, pushed, sc, proj) {
				continue
			}
			inputs = append(inputs, &plan.Scan{
				Table: kid, Proj: proj, Filter: filter,
				SegFiles: p.Cat.AllSegFiles(p.Snap, kid.OID),
				Schema:   sc.schema,
			})
			totalRows += p.tableRows(kid)
		}
		node = &plan.Append{Inputs: inputs, Schema: sc.schema}
	} else {
		node = &plan.Scan{
			Table: desc, Proj: proj, Filter: filter,
			SegFiles: p.Cat.AllSegFiles(p.Snap, desc.OID),
			Schema:   sc.schema,
		}
		totalRows = p.tableRows(desc)
	}
	rel := &relation{
		node: node,
		cols: sc.cols,
		rows: totalRows*sel + 1,
	}
	// The rows are hashed on the table's distribution columns wherever
	// they sit, but the relation can only say so — and so colocate,
	// aggregate locally or dispatch directly — when the scan outputs
	// them; unreferenced, the key is gone exactly as if projected away.
	var distCols []int
	if !desc.IsExternal() && !desc.Dist.Random {
		distCols = desc.Dist.Cols
		if len(distCols) == 0 {
			distCols = []int{0} // default distribution: first column
		}
		distCols = outputPositions(proj, distCols)
	}
	if distCols == nil {
		rel.dist = distInfo{kind: distRandom}
	} else {
		rel.dist = distInfo{kind: distHash, cols: distCols}
		// Direct dispatch: all dist cols pinned by equality constants
		// (segment known now) or by $n placeholders (segment chosen at
		// bind time, so generic cached plans keep the fast path).
		if !p.DisableDirectDispatch {
			if seg, keys, ok := p.directSegment(distCols, pushed, sc); ok {
				if keys == nil {
					rel.direct = []int{seg}
				} else {
					rel.directKeys = keys
				}
			}
		}
	}
	return rel, nil
}

// outputPositions translates table column indexes into positions in a
// scan's output (proj), or returns nil when the scan does not output
// every one of them.
func outputPositions(proj, tableCols []int) []int {
	out := make([]int, len(tableCols))
	for i, tc := range tableCols {
		out[i] = -1
		for pos, c := range proj {
			if c == tc {
				out[i] = pos
			}
		}
		if out[i] < 0 {
			return nil
		}
	}
	return out
}

// directSegment checks for "distcol = const" (or, in generic mode,
// "distcol = $n") constraints pinning the scan to one segment (§3:
// single value lookup); distCols are the distribution columns as scan
// output positions, the index space sc resolves into. When every
// distribution column is pinned and at least one pin is a placeholder,
// the segment cannot be computed yet: the per-column value sources come
// back as keys for the plan to resolve in BindParams. With constants
// only, keys is nil and the segment is final.
func (p *Planner) directSegment(distCols []int, pushed []sqlparser.Expr, sc *scope) (int, []plan.DirectKey, bool) {
	keys := make([]plan.DirectKey, len(distCols))
	pinned := make([]bool, len(distCols))
	found, params := 0, 0
	for _, c := range pushed {
		be, ok := c.(*sqlparser.BinExpr)
		if !ok || be.Op != "=" {
			continue
		}
		id, lit := be.L, be.R
		if _, isID := id.(*sqlparser.Ident); !isID {
			id, lit = be.R, be.L
		}
		ident, ok := id.(*sqlparser.Ident)
		if !ok {
			continue
		}
		b := &binder{scope: sc, params: p.paramBinder()}
		lb, err := b.bind(lit)
		if err != nil {
			continue
		}
		key := plan.DirectKey{Param: -1}
		switch v := lb.(type) {
		case *expr.Const:
			key.Const = v.D
		case *expr.Param:
			key.Param = v.Idx
		default:
			continue
		}
		idx, err := sc.resolve(ident)
		if err != nil {
			continue
		}
		for i, dc := range distCols {
			if dc == idx && !pinned[i] {
				keys[i] = key
				pinned[i] = true
				found++
				if key.Param >= 0 {
					params++
				}
			}
		}
	}
	if found != len(distCols) {
		return 0, nil, false
	}
	if params > 0 {
		return 0, keys, true
	}
	vals := make(types.Row, len(distCols))
	for i, k := range keys {
		vals[i] = k.Const
	}
	// The placement hash, as the redistribute motion and the insert path
	// take it.
	return int(types.HashRowCols(vals, nil) % uint64(p.NumSegments)), nil, true
}

// partitionPruned decides whether a child partition cannot contain
// matching rows given the pushed-down conjuncts; proj maps the positions
// sc resolves to back to table columns, where PartCol lives.
func (p *Planner) partitionPruned(kid *catalog.TableDesc, pushed []sqlparser.Expr, sc *scope, proj []int) bool {
	for _, c := range pushed {
		be, ok := c.(*sqlparser.BinExpr)
		if !ok {
			continue
		}
		id, lit := be.L, be.R
		op := be.Op
		if _, isID := id.(*sqlparser.Ident); !isID {
			id, lit = be.R, be.L
			op = flipComparison(op)
		}
		ident, ok := id.(*sqlparser.Ident)
		if !ok {
			continue
		}
		idx, err := sc.resolve(ident)
		if err != nil || proj[idx] != kid.PartCol {
			continue
		}
		b := &binder{scope: sc, params: p.paramBinder()}
		bound, err := b.bind(lit)
		if err != nil {
			continue
		}
		konst, ok := bound.(*expr.Const)
		if !ok {
			continue
		}
		v := konst.D
		if kid.PartKind == catalog.PartRange && !kid.RangeLo.IsNull() {
			// Child covers [lo, hi).
			switch op {
			case "=":
				if types.Compare(v, kid.RangeLo) < 0 || types.Compare(v, kid.RangeHi) >= 0 {
					return true
				}
			case "<":
				if types.Compare(kid.RangeLo, v) >= 0 {
					return true
				}
			case "<=":
				if types.Compare(kid.RangeLo, v) > 0 {
					return true
				}
			case ">":
				if types.Compare(v, kid.RangeHi) >= 0 || types.Equal(v, sub1(kid.RangeHi)) {
					return true
				}
			case ">=":
				if types.Compare(v, kid.RangeHi) >= 0 {
					return true
				}
			}
		}
		if kid.PartKind == catalog.PartList && len(kid.ListValues) > 0 && op == "=" {
			match := false
			for _, lv := range kid.ListValues {
				if types.Equal(lv, v) {
					match = true
					break
				}
			}
			if !match {
				return true
			}
		}
	}
	return false
}

func sub1(d types.Datum) types.Datum {
	switch d.K {
	case types.KindInt32, types.KindInt64, types.KindDate:
		out := d
		out.I--
		return out
	}
	return d
}

func flipComparison(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// unitsReferenced reports which units an expression's identifiers bind
// to. ambiguous is set when an identifier resolves in multiple units.
func (p *Planner) unitsReferenced(e sqlparser.Expr, units []*fromUnit) (refs []int, ambiguous bool) {
	var ids []*sqlparser.Ident
	identRefs(e, &ids, func(*sqlparser.SelectStmt) {}) // subqueries name their own tables
	seen := map[int]bool{}
	for _, id := range ids {
		hits := 0
		for ui, u := range units {
			if _, err := u.scope.resolve(id); err == nil {
				if !seen[ui] {
					seen[ui] = true
					refs = append(refs, ui)
				}
				hits++
			}
		}
		if hits > 1 {
			// Resolvable in several units: ambiguous unless qualified.
			if id.Qualifier() == "" {
				return nil, true
			}
		}
	}
	return refs, false
}

// equiJoinSides recognizes "a.x = b.y" style conjuncts.
func equiJoinSides(e sqlparser.Expr) (*sqlparser.Ident, *sqlparser.Ident, bool) {
	be, ok := e.(*sqlparser.BinExpr)
	if !ok || be.Op != "=" {
		return nil, nil, false
	}
	l, lok := be.L.(*sqlparser.Ident)
	r, rok := be.R.(*sqlparser.Ident)
	if !lok || !rok {
		return nil, nil, false
	}
	return l, r, true
}

// planExplicitJoin plans an explicit JOIN ... ON tree, placing its ON
// conjuncts where blockRefs recorded (need.on): a base table's inside the
// derived table filterTable builds, another side's as a Select over it,
// the rest in the join.
func (p *Planner) planExplicitJoin(j *sqlparser.Join, need *colRefs) (*relation, error) {
	var kind plan.JoinKind
	switch j.Type {
	case sqlparser.JoinInner, sqlparser.JoinCross:
		kind = plan.InnerJoin
	case sqlparser.JoinLeft, sqlparser.JoinRight:
		kind = plan.LeftJoin // a RIGHT JOIN is planned flipped
	default:
		return nil, fmt.Errorf("planner: %s not supported", j.Type)
	}
	on, ok := need.on[j]
	if !ok {
		return nil, fmt.Errorf("planner: JOIN planned outside the block that references it")
	}
	var sides [2]*relation
	for i, ref := range [2]sqlparser.TableRef{j.Left, j.Right} {
		if t, ok := ref.(*sqlparser.TableName); ok && len(on.table[i]) > 0 {
			filtered, err := p.filterTable(t, on.table[i])
			if err != nil {
				return nil, err
			}
			ref = filtered
		}
		u, err := p.newFromUnit(ref, need)
		if err != nil {
			return nil, err
		}
		u.pushed = on.side[i]
		if err := p.materialize(u); err != nil {
			return nil, err
		}
		sides[i] = u.rel
	}
	left, right := sides[0], sides[1]
	if j.Type == sqlparser.JoinRight {
		left, right = right, left
	}
	// Split the rest of the ON clause into equi keys and residual
	// predicates.
	combined := combinedScope(left, right)
	var leftKeys, rightKeys []int
	var residual expr.Expr
	for _, c := range on.join {
		if lid, rid, ok := equiJoinSides(c); ok {
			li, lerr := left.scope().resolve(lid)
			ri, rerr := right.scope().resolve(rid)
			if lerr != nil || rerr != nil {
				// Maybe written b.y = a.x.
				li, lerr = left.scope().resolve(rid)
				ri, rerr = right.scope().resolve(lid)
			}
			if lerr == nil && rerr == nil {
				leftKeys = append(leftKeys, li)
				rightKeys = append(rightKeys, ri)
				continue
			}
		}
		b := &binder{scope: combined, subquery: p.scalarSubquery(), params: p.paramBinder()}
		bound, err := b.bind(c)
		if err != nil {
			return nil, err
		}
		residual = conjoin(residual, bound)
	}
	rel, err := p.joinRelations(left, right, leftKeys, rightKeys, kind, residual)
	if err != nil || j.Type != sqlparser.JoinRight {
		return rel, err
	}
	// The flip put the right side's columns first; a RIGHT JOIN lists
	// its left side's first, like any other join.
	nLeft, nRight := sides[0].schema().Len(), sides[1].schema().Len()
	perm := make([]int, nLeft+nRight)
	for i := range perm {
		perm[i] = (nRight + i) % len(perm)
	}
	return permute(rel, perm), nil
}

func combinedScope(l, r *relation) *scope {
	cols := append(append([]scopeCol{}, l.cols...), r.cols...)
	return &scope{cols: cols, schema: l.schema().Concat(r.schema())}
}
