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
	ref sqlparser.TableRef
	rel *relation // materialized lazily
	// scope binds the block's identifiers to the unit's columns, and so
	// to their ids, before the unit is materialized.
	scope  *scope
	pushed []sqlparser.Expr
	clause string // what pushed came from: WHERE, or an explicit join's JOIN/ON
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
		// Master-only query: SELECT <exprs> [WHERE <constant>].
		rel := values([]types.Row{{}}, types.NewSchema())
		if stmt.Where == nil {
			return rel, nil
		}
		pred, err := p.binder(rel.scope()).pred(stmt.Where, "WHERE")
		if err != nil {
			return nil, err
		}
		return filtered(rel, pred), nil
	}
	var seen [8]string
	names := aliases(stmt.From, seen[:0])
	for i, name := range names {
		if slices.Contains(names[:i], name) {
			return nil, fmt.Errorf("planner: table name %q specified more than once", name)
		}
	}
	need := p.blockRefs(stmt)
	units := make([]*fromUnit, len(stmt.From))
	var buf [8]*scope
	scopes := buf[:0] // scopes[u] binds unit u's columns
	for i, ref := range stmt.From {
		u, err := p.newFromUnit(ref, need)
		if err != nil {
			return nil, err
		}
		units[i], scopes = u, append(scopes, u.scope)
	}
	// Classify WHERE conjuncts by the units their columns bind to. Every
	// col = col is an edge: a join key between two units, a filter of one,
	// and an equality of the block's classes either way.
	var edges []joinEdge
	var residual []sqlparser.Expr
	var semis []*semiUnit
	if stmt.Where != nil {
		for _, c := range conjuncts(stmt.Where) {
			if su, ok := asSemiUnit(c); ok {
				semis = append(semis, su)
				continue
			}
			if l, r, ok := eqCols(c, scopes); ok {
				edges = append(edges, joinEdge{a: l.u, b: r.u, l: scopes[l.u].cols[l.i].id, r: scopes[r.u].cols[r.i].id, raw: c})
				if l.u != r.u {
					continue
				}
			}
			var rbuf [4]int
			refs, err := unitRefs(c, scopes, rbuf[:0])
			if err != nil {
				return nil, err
			}
			switch len(refs) {
			case 0:
				// Constant predicate: keep as residual on the first unit.
				residual = append(residual, c)
			case 1:
				units[refs[0]].pushed = append(units[refs[0]].pushed, c)
			default:
				for _, u := range refs {
					if implied := orImplied(c, scopes, u); implied != nil {
						units[u].pushed = append(units[u].pushed, implied)
					}
				}
				residual = append(residual, c)
			}
		}
	}
	// Materialize relations with their pushed-down filters — derived
	// tables last, each once magicSet has decided its block — then give
	// each subquery predicate that reads one unit alone to that unit. An
	// edge's columns join one class once both units are planned.
	for _, u := range units {
		if u.sel == nil {
			if err := p.materialize(u); err != nil {
				return nil, err
			}
		}
	}
	p.unite(units, edges)
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
	p.unite(units, edges)
	var late []*semiUnit
	for _, su := range semis {
		home := -1
		if len(units) > 1 {
			home = p.semiHome(su, scopes)
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
		bound, err := p.binder(rel.scope()).pred(c, "WHERE")
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
	if len(units) > 1 && (need.star || len(need.tables) > 0) {
		if perm := fromOrder(units, rel); perm != nil {
			rel = project(rel, perm)
		}
	}
	return rel, nil
}

// aliases appends to out the (lower-case) names refs are visible under,
// through JOIN trees. A qualifier names one unit, so no name may repeat.
func aliases(refs []sqlparser.TableRef, out []string) []string {
	for _, ref := range refs {
		switch v := ref.(type) {
		case *sqlparser.TableName:
			out = append(out, strings.ToLower(aliasOf(v)))
		case *sqlparser.SubqueryRef:
			out = append(out, strings.ToLower(v.Alias))
		case *sqlparser.Join:
			out = aliases([]sqlparser.TableRef{v.Left, v.Right}, out)
		}
	}
	return out
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
	u := &fromUnit{ref: ref, clause: "WHERE"}
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
			u.scope.cols[i].id = p.newID()
			u.scope.cols[i].st = p.colStat(desc.OID, c)
			u.scope.cols[i].notNull = desc.Schema.Columns[c].NotNull && !desc.IsExternal()
		}
	case *sqlparser.SubqueryRef:
		u.sel = pruneOutputs(v.Select, strings.ToLower(v.Alias), need)
		u.scope = &scope{cols: p.refNames(&sqlparser.SubqueryRef{Select: u.sel, Alias: v.Alias})}
		for i := range u.scope.cols {
			u.scope.cols[i].id = p.newID()
		}
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
		cols := make([]scopeCol, len(rel.cols))
		for i, c := range rel.cols {
			c.qual, c.id = u.scope.cols[i].qual, u.scope.cols[i].id
			cols[i] = c
		}
		u.rel = &relation{node: rel.node, cols: cols, dist: rel.dist, rows: rel.rows}
	}
	if u.rel != nil {
		// Derived/join units: apply pushed filters as a Select.
		for _, c := range u.pushed {
			bound, err := p.binder(u.rel.scope()).pred(c, u.clause)
			if err != nil {
				return err
			}
			u.rel = filtered(u.rel, bound)
		}
		return nil
	}
	var err error
	u.rel, err = p.scanRelation(u.desc, u.proj, u.pushed, u.clause, u.scope)
	return err
}

// scanRelation builds the scan of one table, partitioned or not,
// producing the table columns proj; sc names them in that order, so the
// bound filter, like everything above the scan, indexes output
// positions.
func (p *Planner) scanRelation(desc *catalog.TableDesc, proj []int, pushed []sqlparser.Expr, clause string, sc *scope) (*relation, error) {
	var filter expr.Expr
	var terms []expr.ColCmpTerm // the conjuncts' comparisons of a column with a value
	sel := 1.0
	b := p.binder(sc)
	for _, c := range pushed {
		bound, err := b.pred(c, clause)
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
	} else {
		// A partitioned table is one scan of its parent over the files of
		// every partition that survives elimination: the partitions share
		// the parent's schema, storage and distribution.
		scan := &plan.Scan{Table: desc, Proj: proj, Filter: filter, Schema: sc.schema}
		if desc.IsPartitionParent() {
			kids, err := p.Cat.PartitionChildren(p.Snap, desc.OID)
			if err != nil {
				return nil, err
			}
			for _, kid := range kids {
				if !p.DisablePartitionElim && partitionPruned(kid, terms, proj) {
					continue
				}
				scan.SegFiles = append(scan.SegFiles, p.Cat.AllSegFiles(p.Snap, kid.OID)...)
				scan.Parts++
				totalRows += p.tableRows(kid)
			}
		} else {
			scan.SegFiles = p.Cat.AllSegFiles(p.Snap, desc.OID)
			totalRows = p.tableRows(desc)
		}
		node = scan
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
			if seg, keys, ok := p.directSegment(node.OutSchema(), distCols, terms); ok {
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
		if out[i] = slices.Index(proj, tc); out[i] < 0 {
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
// constants only, keys is nil and the segment is final. A constant of
// a kind that hashes apart from the column's (an exact number against a
// DOUBLE) is cast to the column's kind first, as a bound parameter is.
func (p *Planner) directSegment(schema *types.Schema, distCols []int, terms []expr.ColCmpTerm) (int, []plan.DirectKey, bool) {
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
			d, col := v.D, schema.Columns[t.Col]
			if !types.Hashable(d.K, col.Kind) {
				var err error
				if d, err = types.CastScale(d, col.Kind, col.Scale); err != nil {
					continue
				}
			}
			keys[i] = plan.DirectKey{Param: -1, Const: d}
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
	seg, err := plan.KeySegment(keys, nil, p.NumSegments)
	return seg, nil, err == nil
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
		if kid.PartKind == catalog.PartList && len(kid.ListValues) > 0 && t.Op == expr.OpEq &&
			!slices.ContainsFunc(kid.ListValues, func(lv types.Datum) bool { return types.Equal(lv, v.D) }) {
			return true
		}
	}
	return false
}

func sub1(d types.Datum) types.Datum {
	switch d.K {
	case types.KindInt32, types.KindInt64, types.KindDate:
		d.I--
	}
	return d
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
		u.pushed, u.clause = append(on.side[i], on.table[i]...), "JOIN/ON"
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
	scopes := []*scope{left.scope(), right.scope()}
	var leftKeys, rightKeys []int
	var residual expr.Expr
	for _, c := range on.join {
		if l, r, ok := eqCols(c, scopes); ok && l.u != r.u {
			if l.u == 1 {
				l, r = r, l
			}
			leftKeys, rightKeys = append(leftKeys, l.i), append(rightKeys, r.i)
			continue
		}
		bound, err := p.binder(combined).pred(c, "JOIN/ON")
		if err != nil {
			return nil, err
		}
		residual = conjoin(residual, bound)
	}
	rel, err := p.joinRelations(left, right, leftKeys, rightKeys, kind, residual)
	// The keys of an inner join that no outer join can NULL hold in every
	// row the block outputs.
	for i := 0; err == nil && on.facts && i < len(leftKeys); i++ {
		p.equate(left, leftKeys[i], right, rightKeys[i])
	}
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
