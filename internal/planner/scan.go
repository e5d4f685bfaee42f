package planner

import (
	"fmt"
	"slices"
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
	// sel is a derived table's block, pruned to what the enclosing block
	// references; materialize plans it.
	sel *sqlparser.SelectStmt
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
			if su, ok := asSemiUnit(c); ok {
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
	// Materialize relations with their pushed-down filters — derived
	// tables last, each once magicSet has decided its block — then give
	// each subquery predicate that reads one unit alone to that unit.
	for _, u := range units {
		if u.sel == nil {
			if err := p.materialize(u); err != nil {
				return nil, err
			}
		}
	}
	for i, u := range units {
		if u.sel == nil {
			continue
		}
		if sel := p.magicSet(units, edges, i); sel != nil {
			u.sel = sel
		}
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
	rel, perm, err := p.orderJoins(units, edges)
	if err != nil {
		return nil, err
	}
	// Residual predicates over the full join.
	for _, c := range residual {
		b := p.binder(rel.scope())
		bound, err := b.bind(c)
		if err != nil {
			return nil, err
		}
		rel = filtered(rel, bound)
	}
	// The remaining semi/anti-join predicates (EXISTS / IN subqueries).
	for _, su := range late {
		rel, err = p.applySemiJoin(rel, su)
		if err != nil {
			return nil, err
		}
	}
	// The join order put the units' columns in its own order; * and t.*
	// list them in FROM order.
	if perm != nil && (need.star || len(need.tables) > 0) {
		rel = project(rel, perm)
	}
	return rel, nil
}

// filtered is rel under a Select on pred, its rows scaled by pred's
// selectivity.
func filtered(rel *relation, pred expr.Expr) *relation {
	return &relation{
		node: &plan.Select{Input: rel.node, Pred: pred},
		cols: rel.cols, dist: rel.dist, rows: rel.rows * selectivity(pred, rel.cols), direct: rel.direct, directKeys: rel.directKeys,
	}
}

// table resolves a table name, once per statement.
func (p *Planner) table(name string) (*catalog.TableDesc, error) {
	p.paramBinder() // makes p.st
	for _, desc := range p.st.descs {
		if strings.EqualFold(desc.Name, name) {
			return desc, nil
		}
	}
	desc, err := p.Cat.LookupTable(p.Snap, name)
	if err == nil {
		p.st.descs = append(p.st.descs, desc)
	}
	return desc, err
}

// binder binds over sc, with the statement's placeholders and scalar
// subqueries.
func (p *Planner) binder(sc *scope) *binder {
	return &binder{scope: sc, subquery: p.SubqueryEval, params: p.paramBinder()}
}

// newFromUnit resolves one FROM item far enough to answer name lookups,
// exposing only what the enclosing block references (need): a base
// table's referenced columns, a derived table's referenced outputs.
func (p *Planner) newFromUnit(ref sqlparser.TableRef, need *colRefs) (*fromUnit, error) {
	u := &fromUnit{ref: ref}
	switch v := ref.(type) {
	case *sqlparser.TableName:
		desc, err := p.table(v.Name)
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
		for i, c := range u.proj {
			u.scope.cols[i].st = p.colStat(desc.OID, c)
			u.scope.cols[i].notNull = desc.Schema.Columns[c].NotNull && !desc.IsExternal()
		}
	case *sqlparser.SubqueryRef:
		u.sel = pruneOutputs(v.Select, strings.ToLower(v.Alias), need)
		u.scope = &scope{cols: p.refNames(&sqlparser.SubqueryRef{Select: u.sel, Alias: v.Alias})}
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
// filters and running partition elimination, or plans a derived table's
// block.
func (p *Planner) materialize(u *fromUnit) error {
	if u.sel != nil {
		rel, err := p.planQuery(u.sel)
		if err != nil {
			return err
		}
		qual := strings.ToLower(u.ref.(*sqlparser.SubqueryRef).Alias)
		cols := make([]scopeCol, len(rel.cols))
		for i, c := range rel.cols {
			c.qual = qual
			cols[i] = c
		}
		u.rel = &relation{node: rel.node, cols: cols, dist: rel.dist, rows: rel.rows}
	}
	if u.rel != nil {
		// Derived/join units: apply pushed filters as a Select.
		for _, c := range u.pushed {
			b := p.binder(u.rel.scope())
			bound, err := b.bind(c)
			if err != nil {
				return err
			}
			u.rel = filtered(u.rel, bound)
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
	var terms []expr.ColCmpTerm // the conjuncts' comparisons of a column with a value
	sel := 1.0
	b := p.binder(sc)
	for _, c := range pushed {
		bound, err := b.bind(c)
		if err != nil {
			return nil, err
		}
		filter = conjoin(filter, bound)
		terms, _ = expr.ColCmpTerms(bound, terms)
	}
	if filter != nil {
		sel = selectivity(filter, sc.cols)
	}
	var node plan.Node
	var totalRows float64
	if desc.IsExternal() {
		node = &plan.ExternalScan{
			Table: desc, Proj: proj, Filter: filter,
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
			if !p.DisablePartitionElim && partitionPruned(kid, terms, proj) {
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
			if seg, keys, ok := p.directSegment(distCols, terms); ok {
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
// "distcol = $n") conjuncts pinning the scan to one segment (§3: single
// value lookup); distCols are the distribution columns as scan output
// positions, the index space the conjuncts' comparisons (terms) use.
// When every distribution column is pinned and at least one pin is a
// placeholder, the segment cannot be computed yet: the per-column value
// sources come back as keys for the plan to resolve in BindParams. With
// constants only, keys is nil and the segment is final.
func (p *Planner) directSegment(distCols []int, terms []expr.ColCmpTerm) (int, []plan.DirectKey, bool) {
	keys := make([]plan.DirectKey, len(distCols))
	pinned := make([]bool, len(distCols))
	found, params := 0, 0
	for _, t := range terms {
		i := slices.Index(distCols, t.Col)
		if t.Op != expr.OpEq || i < 0 || pinned[i] {
			continue
		}
		switch v := t.Val.(type) {
		case *expr.Const:
			keys[i] = plan.DirectKey{Param: -1, Const: v.D}
		case *expr.Param:
			keys[i] = plan.DirectKey{Param: v.Idx}
			params++
		default:
			continue
		}
		pinned[i] = true
		found++
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
// matching rows given the conjuncts' comparisons (terms); proj maps their
// column positions back to table columns, where PartCol lives.
//
// The range test is its own switch, not ColCmp.MayMatch: a child covers
// the half-open [lo, hi), and over the one-value integer child [v, v+1)
// "<> v" keeps the child here where a zone map of [v, v] skips its page.
func partitionPruned(kid *catalog.TableDesc, terms []expr.ColCmpTerm, proj []int) bool {
	for _, t := range terms {
		v, isConst := t.Val.(*expr.Const)
		if !isConst || proj[t.Col] != kid.PartCol {
			continue
		}
		if kid.PartKind == catalog.PartRange && !kid.RangeLo.IsNull() {
			// Child covers [lo, hi).
			switch t.Op {
			case expr.OpEq:
				if types.Compare(v.D, kid.RangeLo) < 0 || types.Compare(v.D, kid.RangeHi) >= 0 {
					return true
				}
			case expr.OpLt:
				if types.Compare(kid.RangeLo, v.D) >= 0 {
					return true
				}
			case expr.OpLe:
				if types.Compare(kid.RangeLo, v.D) > 0 {
					return true
				}
			case expr.OpGt:
				if types.Compare(v.D, kid.RangeHi) >= 0 || types.Equal(v.D, sub1(kid.RangeHi)) {
					return true
				}
			case expr.OpGe:
				if types.Compare(v.D, kid.RangeHi) >= 0 {
					return true
				}
			}
		}
		if kid.PartKind == catalog.PartList && len(kid.ListValues) > 0 && t.Op == expr.OpEq {
			match := false
			for _, lv := range kid.ListValues {
				if types.Equal(lv, v.D) {
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

// unitsReferenced reports which units an expression's identifiers bind
// to. ambiguous is set when an identifier resolves in multiple units.
func (p *Planner) unitsReferenced(e sqlparser.Expr, units []*fromUnit) (refs []int, ambiguous bool) {
	var ids []*sqlparser.Ident
	identRefs(e, &ids, func(*sqlparser.SelectStmt) {}) // subqueries name their own tables
	seen := map[int]bool{}
	for _, id := range ids {
		hits := 0
		for ui, u := range units {
			if u.scope.index(id) >= 0 {
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
// conjuncts where blockRefs recorded (need.on): a base table's on its
// scan, another side's as a Select over it, the rest in the join.
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
		// A base table's conjuncts filter its scan, which reads the
		// columns only they read too; a Project drops those above the
		// filter, so Q13's o_comment crosses no motion.
		wide := need
		if len(on.table[i]) > 0 {
			w := *need
			w.idents = nil
			for _, c := range on.table[i] {
				identRefs(c, &w.idents, nil)
			}
			w.idents = append(w.idents, need.idents...)
			wide = &w
		}
		u, err := p.newFromUnit(ref, wide)
		if err != nil {
			return nil, err
		}
		u.pushed = append(on.side[i], on.table[i]...)
		if err := p.materialize(u); err != nil {
			return nil, err
		}
		sides[i] = u.rel
		if wide != need {
			used := need.used(strings.ToLower(aliasOf(ref.(*sqlparser.TableName))), u.desc.Schema.Names())
			var keep []int
			for pos, c := range u.proj {
				if used[c] {
					keep = append(keep, pos)
				}
			}
			if len(keep) < len(u.proj) {
				sides[i] = project(u.rel, keep)
			}
		}
	}
	left, right := sides[0], sides[1]
	if j.Type == sqlparser.JoinRight {
		left, right = right, left
	}
	// Split the rest of the ON clause into equi keys and residual
	// predicates.
	combined := &scope{cols: append(append([]scopeCol{}, left.cols...), right.cols...), schema: left.schema().Concat(right.schema())}
	var leftKeys, rightKeys []int
	var residual expr.Expr
	for _, c := range on.join {
		if lid, rid, ok := equiJoinSides(c); ok {
			if li, ri, ok := eqSides(left.scope(), right.scope(), lid, rid); ok {
				leftKeys, rightKeys = append(leftKeys, li), append(rightKeys, ri)
				continue
			}
		}
		bound, err := p.binder(combined).bind(c)
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
	return project(rel, perm), nil
}
