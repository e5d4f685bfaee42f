package planner

import (
	"slices"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// Predicate placement (DESIGN.md §18): every relation is filtered as far
// down as the predicates allow before the join order is chosen. Three
// rules, each sound under NULLs and outer joins:
//
//   - an OR over several FROM units implies, for each unit, the OR of
//     every disjunct's conjuncts on that unit alone (orImplied);
//   - an ON conjunct over one side of an inner join, or over the nullable
//     side of an outer join, filters that side's input (placeOn);
//   - an IN / EXISTS subquery whose outer references all bind to one FROM
//     unit joins that unit before the others (semiHome).

// fold joins es with op, left to right; nil when es is empty.
func fold(op string, es []sqlparser.Expr) sqlparser.Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &sqlparser.BinExpr{Op: op, L: out, R: e}
	}
	return out
}

// idents collects e's identifiers and reports whether it holds a
// subquery of any kind.
func idents(e sqlparser.Expr) (ids []*sqlparser.Ident, sub bool) {
	identRefs(e, &ids, func(*sqlparser.SelectStmt) { sub = true })
	return ids, sub
}

// orImplied returns what the multi-unit OR conjunct c implies about unit
// u alone: the OR, over c's disjuncts, of each disjunct's conjuncts that
// reference u and nothing else. It is nil when some disjunct has no such
// conjunct — a row of u can then satisfy c through that disjunct whatever
// it holds. A row c keeps makes some disjunct, hence all its conjuncts,
// true, so u loses only rows c would have rejected; c itself stays as the
// join's residual.
func orImplied(c sqlparser.Expr, scopes []*scope, u int) sqlparser.Expr {
	ds := flatten("or", c)
	if len(ds) < 2 {
		return nil
	}
	implied := make([]sqlparser.Expr, 0, len(ds))
	for _, d := range ds {
		var on []sqlparser.Expr
		for _, dc := range conjuncts(d) {
			if _, sub := idents(dc); sub {
				continue
			}
			var buf [2]int
			if refs, err := unitRefs(dc, scopes, buf[:0]); err == nil && len(refs) == 1 && refs[0] == u {
				on = append(on, dc)
			}
		}
		if len(on) == 0 {
			return nil
		}
		implied = append(implied, fold("and", on))
	}
	return fold("or", implied)
}

// onPlacement is an explicit join's ON clause divided by where each
// conjunct is evaluated: table[i] on side i's base-table scan; side[i]
// over side i's input when that is not a base table; join by the join
// itself. blockRefs decides it once per join (colRefs.on) and
// planExplicitJoin plans exactly that.
type onPlacement struct {
	table, side [2][]sqlparser.Expr
	join        []sqlparser.Expr
	// facts: the join is inner and under no outer join's nullable side,
	// so its equi keys hold in every row the block outputs and join the
	// block's classes.
	facts bool
}

// inBlock returns the conjuncts the enclosing block evaluates, and so
// must expose the columns of: all but those inside a base table.
func (o onPlacement) inBlock() []sqlparser.Expr {
	return append(append(append([]sqlparser.Expr{}, o.join...), o.side[0]...), o.side[1]...)
}

// placeOn places each ON conjunct. One that references a single side
// filters that side's input when the join keeps none of that side's
// unmatched rows — either side of an inner join, the nullable side of an
// outer join: a row it rejects matches nothing, and an unmatched nullable
// row never reaches the output. On the preserved side of an outer join it
// stays in the join, where failing it NULL-extends the row instead of
// removing it. Conjuncts with a subquery, with no identifier, or with one
// that binds to both sides or neither, stay in the join too. nullable
// says that j lies under an outer join's nullable side.
func (p *Planner) placeOn(j *sqlparser.Join, nullable bool) onPlacement {
	o := onPlacement{facts: j.Type == sqlparser.JoinInner && !nullable}
	if j.On == nil {
		return o
	}
	refs := [2]sqlparser.TableRef{j.Left, j.Right}
	scopes := []*scope{p.fromScope(refs[:1]), p.fromScope(refs[1:])}
	filters := [2]bool{
		j.Type == sqlparser.JoinInner || j.Type == sqlparser.JoinRight,
		j.Type == sqlparser.JoinInner || j.Type == sqlparser.JoinLeft,
	}
	for _, c := range conjuncts(j.On) {
		side, buf := -1, [2]int{}
		if _, sub := idents(c); !sub {
			if us, err := unitRefs(c, scopes, buf[:0]); err == nil && len(us) == 1 {
				side = us[0]
			}
		}
		switch {
		case side < 0 || !filters[side]:
			o.join = append(o.join, c)
		case isBaseTable(refs[side]):
			o.table[side] = append(o.table[side], c)
		default:
			o.side[side] = append(o.side[side], c)
		}
	}
	return o
}

func isBaseTable(ref sqlparser.TableRef) bool {
	_, ok := ref.(*sqlparser.TableName)
	return ok
}

// semiHome returns the FROM unit every outer reference of su binds to —
// its IN expression's identifiers and the subquery's correlated ones — or
// -1 when they bind to several, to none (an uncorrelated EXISTS), or past
// this block. The subquery then filters that unit alone, before the join
// order is chosen: the predicate reads nothing else, so applying it below
// the inner joins keeps exactly the rows applying it above would.
func (p *Planner) semiHome(su *semiUnit, scopes []*scope) int {
	var ids []*sqlparser.Ident
	if su.outerExpr != nil {
		ids, _ = idents(su.outerExpr)
	}
	ids = append(ids, p.freeIdents(su.sub)...)
	home := -1
	for _, id := range ids {
		at, err := resolveIn(scopes, id)
		if err != nil || (home >= 0 && at.u != home) {
			return -1
		}
		home = at.u
	}
	return home
}

// magicSet returns the block of derived table units[d] rewritten to
// compute only the groups the enclosing block can join, or nil (DESIGN.md
// §19). It applies when d groups by a plain column k of one of its base
// tables whose class holds a column y of a filtered base table U whose
// surviving keys are estimated fewer than k's distinct values: d's WHERE
// gains `k IN (SELECT y FROM U WHERE <U's filters>)`, a semi join below
// d's aggregate. It is decided from k's statistics before d is planned,
// so d is planned once; k joins the classes of the planned columns it
// equals with its base column's kind, which a group key keeps. Sound
// because k is a grouping key: a group is kept or dropped whole, and a
// dropped group's k is no y that U keeps, so the block, which applies
// every equality of k's class, would have dropped every row it produced.
// A NULL k joins nothing either way.
func (p *Planner) magicSet(units []*fromUnit, edges []joinEdge, d int) *sqlparser.SelectStmt {
	sel := units[d].sel
	if sel == nil || len(edges) == 0 || len(sel.GroupBy) == 0 || sel.Distinct || sel.Limit != nil || sel.Offset != nil {
		return nil
	}
	for i, item := range sel.Projections {
		id, isCol := item.Expr.(*sqlparser.Ident)
		if !isCol || !slices.ContainsFunc(sel.GroupBy, func(g sqlparser.Expr) bool { return g.String() == id.String() }) {
			continue
		}
		kc, st := p.baseCol(sel, id)
		if st == nil {
			continue
		}
		k := units[d].scope.cols[i].id // a grouped block's list has no star
		for _, e := range edges {
			u, x := e.b, e.r
			if e.r == k {
				u, x = e.a, e.l
			} else if e.l != k {
				continue
			}
			if rel := units[u].rel; rel != nil && types.Hashable(kc.Kind, rel.schema().Columns[rel.pos(x)].Kind) {
				p.st.union(k, x)
			}
		}
		best, at, keys := -1, 0, st.NDistinct
		var conds []sqlparser.Expr
		for ui, u := range units {
			for c := 0; u.desc != nil && c < len(u.rel.cols); c++ {
				if !p.st.eq.same(u.rel.cols[c].id, k) {
					continue
				}
				var cs []sqlparser.Expr
				for _, f := range u.pushed {
					if _, sub := idents(f); !sub {
						cs = append(cs, f)
					}
				}
				if len(cs) > 0 && ndv(u.rel, c) < keys {
					best, at, keys, conds = ui, c, ndv(u.rel, c), cs
				}
			}
		}
		if best < 0 {
			continue
		}
		t := units[best].ref.(*sqlparser.TableName)
		y := &sqlparser.Ident{Parts: []string{aliasOf(t), units[best].rel.cols[at].name}}
		sub := &sqlparser.SelectStmt{Projections: []sqlparser.SelectItem{{Expr: y}}, From: []sqlparser.TableRef{t}, Where: fold("and", conds)}
		cp := *sel
		cp.Where = &sqlparser.InExpr{E: id, Sub: sub}
		if sel.Where != nil {
			cp.Where = &sqlparser.BinExpr{Op: "and", L: sel.Where, R: cp.Where}
		}
		return &cp
	}
	return nil
}

// baseCol resolves id against the base tables in sel's FROM list: the
// column and its statistics, or a nil ColStats when no single base-table
// column answers to id or the column has none.
func (p *Planner) baseCol(sel *sqlparser.SelectStmt, id *sqlparser.Ident) (types.Column, *catalog.ColStats) {
	scopes := make([]*scope, len(sel.From))
	for i := range sel.From {
		scopes[i] = p.fromScope(sel.From[i : i+1])
	}
	at, err := resolveIn(scopes, id)
	if err != nil {
		return types.Column{}, nil // unknown or ambiguous
	}
	if t, ok := sel.From[at.u].(*sqlparser.TableName); ok {
		if desc, err := p.table(t.Name); err == nil {
			return desc.Schema.Columns[at.i], p.colStat(desc.OID, at.i)
		}
	}
	return types.Column{}, nil
}

// notInNulls completes x NOT IN (subquery), which the anti join on x = y
// gets wrong wherever a NULL takes part: the predicate is NULL, so the
// row fails, for every outer row once the subquery yields a NULL y, and
// for a NULL x unless the subquery yields nothing — and a hash join pairs
// no NULLs, so neither case ever matches. Both are facts about the
// subquery's rows for the outer row's correlation key (about all of them
// when uncorrelated): count(*) and count(y) per key, from a second plan of
// the subquery, anti-joined on the key so that an outer row whose group
// is non-empty and holds a NULL y, or meets a NULL x, is dropped. Each
// probing segment sees the facts it needs: the single key-less row is
// broadcast, keyed groups are placed by key like any join input.
func (p *Planner) notInNulls(rel *relation, inner *sqlparser.SelectStmt, leftKeys []int) (*relation, error) {
	sub, err := p.planQuery(inner)
	if err != nil {
		return nil, err
	}
	in := sub.schema()
	nCorr := len(leftKeys) - 1
	groups := make([]expr.Expr, nCorr)
	cols := make([]types.Column, 0, nCorr+2)
	for i := range groups {
		groups[i] = refCol(in.Columns, 1+i)
		cols = append(cols, in.Columns[1+i])
	}
	specs := []expr.AggSpec{{Kind: expr.AggCountStar}, {Kind: expr.AggCount, Arg: refCol(in.Columns, 0)}}
	cols = append(cols, types.Column{Name: "rows", Kind: types.KindInt64}, types.Column{Name: "nonnull", Kind: types.KindInt64})
	schema := &types.Schema{Columns: cols}
	facts := p.buildAggNodes(sub, groups, specs, schema, false)
	facts.cols = schemaCols(schema)
	w := rel.schema().Len()
	rows := &expr.ColRef{Idx: w + nCorr, K: types.KindInt64, Name: "rows"}
	nonNull := &expr.ColRef{Idx: w + nCorr + 1, K: types.KindInt64, Name: "nonnull"}
	drop := expr.NewBinOp(expr.OpOr,
		expr.NewBinOp(expr.OpLt, nonNull, rows),
		expr.NewBinOp(expr.OpAnd,
			&expr.IsNull{E: refCol(rel.schema().Columns, leftKeys[0])},
			expr.NewBinOp(expr.OpGt, rows, expr.NewConst(types.NewInt64(0)))))
	return p.joinRelations(rel, facts, leftKeys[1:], upTo(nCorr), plan.AntiJoin, drop)
}

// project keeps rel's columns keep, in that order, carrying its
// distribution and the columns' ids along.
func project(rel *relation, keep []int) *relation {
	in := rel.schema()
	exprs := make([]expr.Expr, len(keep))
	cols := make([]scopeCol, len(keep))
	out := make([]types.Column, len(keep))
	for i, c := range keep {
		exprs[i], cols[i], out[i] = refCol(in.Columns, c), rel.cols[c], in.Columns[c]
	}
	return &relation{
		node: &plan.Project{Input: rel.node, Exprs: exprs, Schema: &types.Schema{Columns: out}},
		cols: cols, dist: projectDist(rel.dist, exprs), rows: rel.rows,
	}
}
