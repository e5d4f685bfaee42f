package stinger

import (
	"fmt"
	"strings"

	"hawq/internal/expr"
	"hawq/internal/planner"
	"hawq/internal/sqlparser"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// rel is one intermediate relation in the job pipeline.
type rel struct {
	parts  []string // intermediate part files (nil for base tables)
	base   *Table
	pushed []sqlparser.Expr // filters to apply at the next map phase
	quals  []string
	names  []string
	schema *types.Schema
}

func (r *rel) scope() planner.BindScope {
	return planner.BindScope{Quals: r.quals, Names: r.names, Schema: r.schema}
}

// reader builds the split reader for a relation.
func (e *Engine) reader(r *rel) func(split, nsplits int, fn func(types.Row) error) error {
	if r.base != nil {
		base := r.base
		return func(split, nsplits int, fn func(types.Row) error) error {
			idx := 0
			return storage.Scan(e.FS, orcSpec, base.Schema, base.sf, base.Schema.AllCols(), func(row types.Row) error {
				mine := idx%nsplits == split
				idx++
				if !mine {
					return nil
				}
				return fn(row)
			})
		}
	}
	parts := r.parts
	return func(split, nsplits int, fn func(types.Row) error) error {
		return readSeqSplit(e.FS, parts, split, nsplits, fn)
	}
}

// filterFor binds a relation's pushed filters into one predicate.
func (e *Engine) filterFor(r *rel, extra []sqlparser.Expr) (expr.Expr, error) {
	var out expr.Expr
	for _, c := range append(append([]sqlparser.Expr{}, r.pushed...), extra...) {
		bound, err := planner.BindPredicate(c, r.scope(), e.scalarQuery)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = bound
		} else {
			out = expr.NewBinOp(expr.OpAnd, out, bound)
		}
	}
	return out, nil
}

// scalarQuery evaluates a scalar subquery by running it as its own job
// chain.
func (e *Engine) scalarQuery(sub *sqlparser.SelectStmt) (types.Datum, error) {
	rows, _, err := e.Query(sub.String())
	if err != nil {
		return types.Null, err
	}
	if len(rows) == 0 {
		return types.Null, nil
	}
	if len(rows) > 1 || len(rows[0]) != 1 {
		return types.Null, fmt.Errorf("stinger: scalar subquery shape %dx%d", len(rows), len(rows[0]))
	}
	return rows[0][0], nil
}

// Query parses and runs one SELECT, returning its rows.
func (e *Engine) Query(sql string) ([]types.Row, *types.Schema, error) {
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("stinger: only SELECT is supported, got %T", stmt)
	}
	out, err := e.compile(sel)
	if err != nil {
		return nil, nil, err
	}
	rows, err := e.readAll(out.parts)
	if err != nil {
		return nil, nil, err
	}
	return rows, out.schema, nil
}

// encodeJoinKey encodes join key datums with numeric normalization; ok
// is false for NULL keys.
func encodeJoinKey(row types.Row, cols []int) ([]byte, bool) {
	buf := []byte{0}
	for _, c := range cols {
		d := row[c]
		if d.IsNull() {
			return nil, false
		}
		switch d.K {
		case types.KindInt32:
			d = types.NewInt64(d.I)
		case types.KindDecimal:
			if d.Scale == 0 {
				d = types.NewInt64(d.I)
			}
		}
		buf = types.EncodeDatum(buf, d)
	}
	return buf, true
}

// compile turns a SELECT into a chain of MapReduce jobs and returns the
// materialized result.
func (e *Engine) compile(stmt *sqlparser.SelectStmt) (*rel, error) {
	units, leftJoins, err := e.fromUnits(stmt)
	if err != nil {
		return nil, err
	}
	// Classify WHERE conjuncts.
	type edge struct {
		a, b int
		l, r *sqlparser.Ident
	}
	var edges []edge
	var residual []sqlparser.Expr
	var semis []*semiPredicate
	if stmt.Where != nil {
		for _, c := range planner.Conjuncts(stmt.Where) {
			if sp := asSemiPredicate(c); sp != nil {
				semis = append(semis, sp)
				continue
			}
			refs := unitsOf(c, units)
			switch len(refs) {
			case 0:
				residual = append(residual, c)
			case 1:
				units[refs[0]].pushed = append(units[refs[0]].pushed, c)
			case 2:
				if l, r, ok := planner.EquiJoinSides(c); ok {
					edges = append(edges, edge{a: refs[0], b: refs[1], l: l, r: r})
					continue
				}
				residual = append(residual, c)
			default:
				residual = append(residual, c)
			}
		}
	}
	// Rule-based join order: exactly the FROM-clause order (§8.2.2 —
	// "Stinger uses a simple rule-based algorithm").
	acc := units[0]
	used := map[int]bool{}
	for next := 1; next < len(units); next++ {
		var leftKeys, rightKeys []int
		for ei, ed := range edges {
			if used[ei] {
				continue
			}
			if ed.b != next && ed.a != next {
				continue
			}
			li, lok := planner.ResolveIn(ed.l, acc.scope())
			ri, rok := planner.ResolveIn(ed.r, units[next].scope())
			if !lok || !rok {
				li, lok = planner.ResolveIn(ed.r, acc.scope())
				ri, rok = planner.ResolveIn(ed.l, units[next].scope())
			}
			if lok && rok {
				leftKeys = append(leftKeys, li)
				rightKeys = append(rightKeys, ri)
				used[ei] = true
			}
		}
		// Residual conjuncts that become evaluable after this join.
		var now []sqlparser.Expr
		var later []sqlparser.Expr
		joinedScope := concatScope(acc, units[next])
		for _, c := range residual {
			if bindable(c, joinedScope) {
				now = append(now, c)
			} else {
				later = append(later, c)
			}
		}
		residual = later
		joined, err := e.joinJob(acc, units[next], leftKeys, rightKeys, leftJoins[next], now)
		if err != nil {
			return nil, err
		}
		acc = joined
	}
	if len(residual) > 0 {
		acc.pushed = append(acc.pushed, residual...)
	}
	// Semi/anti joins from IN/EXISTS subqueries.
	for _, sp := range semis {
		acc, err = e.semiJob(acc, sp)
		if err != nil {
			return nil, err
		}
	}
	// Aggregation / projection stage.
	out, hidden, sortKeys, limit, offset, err := e.outputJob(acc, stmt)
	if err != nil {
		return nil, err
	}
	// ORDER BY / LIMIT: total order via a single reducer.
	if len(sortKeys) > 0 || limit >= 0 || offset > 0 {
		out, err = e.sortJob(out, sortKeys, limit, offset, hidden)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fromUnits resolves the FROM clause into units; leftJoins[i] marks unit
// i as the right side of a LEFT OUTER JOIN (with its ON conjuncts merged
// into the predicate pool by the caller via stmt rewriting below).
func (e *Engine) fromUnits(stmt *sqlparser.SelectStmt) ([]*rel, map[int]bool, error) {
	var units []*rel
	leftJoins := map[int]bool{}
	var addRef func(ref sqlparser.TableRef) error
	addRef = func(ref sqlparser.TableRef) error {
		switch v := ref.(type) {
		case *sqlparser.TableName:
			t, err := e.table(v.Name)
			if err != nil {
				return err
			}
			alias := strings.ToLower(v.Alias)
			if alias == "" {
				alias = strings.ToLower(v.Name)
			}
			r := &rel{base: t, schema: t.Schema}
			for _, c := range t.Schema.Columns {
				r.quals = append(r.quals, alias)
				r.names = append(r.names, strings.ToLower(c.Name))
			}
			units = append(units, r)
		case *sqlparser.SubqueryRef:
			sub, err := e.compile(v.Select)
			if err != nil {
				return err
			}
			r := &rel{parts: sub.parts, schema: sub.schema}
			for i := range sub.schema.Columns {
				r.quals = append(r.quals, strings.ToLower(v.Alias))
				r.names = append(r.names, strings.ToLower(sub.schema.Columns[i].Name))
			}
			units = append(units, r)
		case *sqlparser.Join:
			if err := addRef(v.Left); err != nil {
				return err
			}
			rightIdx := len(units)
			if err := addRef(v.Right); err != nil {
				return err
			}
			switch v.Type {
			case sqlparser.JoinInner, sqlparser.JoinCross:
			case sqlparser.JoinLeft:
				leftJoins[rightIdx] = true
			default:
				return fmt.Errorf("stinger: %s not supported", v.Type)
			}
			if v.On != nil {
				// Fold ON conjuncts into the WHERE pool by rewriting the
				// statement once (caller's classification handles them).
				if stmt.Where == nil {
					stmt.Where = v.On
				} else {
					stmt.Where = &sqlparser.BinExpr{Op: "and", L: stmt.Where, R: v.On}
				}
				v.On = nil
			}
		default:
			return fmt.Errorf("stinger: unsupported FROM item %T", ref)
		}
		return nil
	}
	for _, ref := range stmt.From {
		if err := addRef(ref); err != nil {
			return nil, nil, err
		}
	}
	if len(units) == 0 {
		return nil, nil, fmt.Errorf("stinger: queries need a FROM clause")
	}
	return units, leftJoins, nil
}

// unitsOf reports which units an expression references.
func unitsOf(c sqlparser.Expr, units []*rel) []int {
	var ids []*sqlparser.Ident
	collectIdents(c, &ids)
	seen := map[int]bool{}
	var out []int
	for _, id := range ids {
		for ui, u := range units {
			if _, ok := planner.ResolveIn(id, u.scope()); ok {
				if !seen[ui] {
					seen[ui] = true
					out = append(out, ui)
				}
				break
			}
		}
	}
	return out
}

func collectIdents(e sqlparser.Expr, out *[]*sqlparser.Ident) {
	switch v := e.(type) {
	case nil:
	case *sqlparser.Ident:
		*out = append(*out, v)
	case *sqlparser.BinExpr:
		collectIdents(v.L, out)
		collectIdents(v.R, out)
	case *sqlparser.UnExpr:
		collectIdents(v.E, out)
	case *sqlparser.FuncExpr:
		for _, a := range v.Args {
			collectIdents(a, out)
		}
	case *sqlparser.LikeExpr:
		collectIdents(v.E, out)
	case *sqlparser.InExpr:
		collectIdents(v.E, out)
		for _, it := range v.List {
			collectIdents(it, out)
		}
	case *sqlparser.BetweenExpr:
		collectIdents(v.E, out)
		collectIdents(v.Lo, out)
		collectIdents(v.Hi, out)
	case *sqlparser.IsNullExpr:
		collectIdents(v.E, out)
	case *sqlparser.CaseExpr:
		collectIdents(v.Operand, out)
		for _, w := range v.Whens {
			collectIdents(w.Cond, out)
			collectIdents(w.Result, out)
		}
		collectIdents(v.Else, out)
	case *sqlparser.CastExpr:
		collectIdents(v.E, out)
	case *sqlparser.ExtractExpr:
		collectIdents(v.E, out)
	}
}

func concatScope(a, b *rel) planner.BindScope {
	return planner.BindScope{
		Quals:  append(append([]string{}, a.quals...), b.quals...),
		Names:  append(append([]string{}, a.names...), b.names...),
		Schema: a.schema.Concat(b.schema),
	}
}

func bindable(c sqlparser.Expr, sc planner.BindScope) bool {
	var ids []*sqlparser.Ident
	collectIdents(c, &ids)
	for _, id := range ids {
		if _, ok := planner.ResolveIn(id, sc); !ok {
			return false
		}
	}
	return true
}
