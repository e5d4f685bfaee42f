// Package planner implements HAWQ's cost-based query planner (§3): it
// performs semantic analysis over the parse tree, chooses join orders
// with a statistics-driven greedy algorithm, places the three motion
// operators based on data distribution (exploiting colocation of
// hash-distributed tables, §2.3), lowers aggregates into the two-phase
// form, eliminates partitions, detects master-only and directly
// dispatched queries, and emits self-described sliced plans.
package planner

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// scopeCol names one visible column during binding.
type scopeCol struct {
	qual string // table alias (lower case), may be ""
	name string // column name (lower case)
	// st is the statistics of the base column this one carries,
	// through projections and joins; nil when unknown or not read.
	st *catalog.ColStats
	// id is the column's identity in its query block, given once when its
	// FROM unit is resolved and carried through joins, projections and
	// motions; 0 for a column the block computes (DESIGN.md §19).
	id colID
	// notNull: no row holds NULL here (nullability, DESIGN.md §19).
	notNull bool
}

// colID identifies a column of a query block (scopeCol.id).
type colID int32

// scope resolves identifiers to column positions.
type scope struct {
	cols   []scopeCol
	schema *types.Schema
}

// colAt is where a block's WHERE or ON identifier binds: its FROM unit
// and the column's ordinal there.
type colAt struct{ u, i int }

// resolveIn resolves id across a block's FROM units, scopes[u] being
// unit u's: exactly one column of one unit must answer to it.
func resolveIn(scopes []*scope, id *sqlparser.Ident) (colAt, error) {
	at := colAt{u: -1}
	for u, sc := range scopes {
		switch i := sc.index(id); {
		case i == -2 || (i >= 0 && at.u >= 0):
			return at, fmt.Errorf("planner: column reference %q is ambiguous", id)
		case i >= 0:
			at = colAt{u, i}
		}
	}
	if at.u < 0 {
		return at, fmt.Errorf("planner: column %q does not exist", id)
	}
	return at, nil
}

// unitRefs appends to buf the units e's identifiers resolve to through
// scopes, each once, in order of first reference. Subqueries are not
// descended into: they name their own tables.
func unitRefs(e sqlparser.Expr, scopes []*scope, buf []int) ([]int, error) {
	var err error
	sqlparser.Inspect(e, func(x sqlparser.Expr) bool {
		if id, ok := x.(*sqlparser.Ident); ok && err == nil {
			var at colAt
			if at, err = resolveIn(scopes, id); err == nil && !slices.Contains(buf, at.u) {
				buf = append(buf, at.u)
			}
		}
		return err == nil
	})
	return buf, err
}

// eqCols resolves the two columns of a col = col conjunct through
// scopes; ok is false when c is no such conjunct or either side does not
// bind to exactly one column.
func eqCols(c sqlparser.Expr, scopes []*scope) (l, r colAt, ok bool) {
	li, ri, ok := equiJoinSides(c)
	if !ok {
		return l, r, false
	}
	l, lerr := resolveIn(scopes, li)
	r, rerr := resolveIn(scopes, ri)
	return l, r, lerr == nil && rerr == nil
}

// index returns the position of the column answering to the identifier,
// -1 when none does and -2 when several do.
func (s *scope) index(id *sqlparser.Ident) int {
	qual, name := strings.ToLower(id.Qualifier()), strings.ToLower(id.Column())
	found := -1
	for i, c := range s.cols {
		if c.name == name && (qual == "" || c.qual == qual) {
			if found >= 0 {
				return -2
			}
			found = i
		}
	}
	return found
}

// binds reports whether any column of the scope answers to the
// identifier (an ambiguous name still binds here, not further out).
func (s *scope) binds(id *sqlparser.Ident) bool { return s.index(id) != -1 }

// binder turns syntax expressions into bound executable expressions.
type binder struct {
	scope *scope
	// subqueryPlanner evaluates scalar subqueries at plan time; nil
	// disables subqueries in this context.
	subquery func(*sqlparser.SelectStmt) (types.Datum, error)
	// aggScope, when set, is consulted first: SELECT/HAVING/ORDER BY
	// expressions over an aggregation bind group expressions and
	// aggregate calls to the aggregate output row.
	aggScope *aggScope
	// params resolves $n placeholders (prepared statements); nil rejects
	// them.
	params *paramBinder
}

// aggScope maps group expressions and aggregate calls (by syntax string)
// to positions in the aggregate output row.
type aggScope struct {
	groups []string // rendered group expressions
	aggs   []string // rendered aggregate calls
	schema *types.Schema
}

// bind binds e and folds what it binds to when that is made of literals
// alone (expr.Fold): operands are bound, hence folded, first, so a
// constant subtree collapses from the leaves up.
func (b *binder) bind(e sqlparser.Expr) (expr.Expr, error) {
	bound, err := b.bindNode(e)
	if err != nil {
		return nil, err
	}
	folded, err := expr.Fold(bound)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	return folded, nil
}

func (b *binder) bindNode(e sqlparser.Expr) (expr.Expr, error) {
	if b.aggScope != nil {
		if col, ok := b.aggScope.lookup(e); ok {
			return refCol(b.aggScope.schema.Columns, col), nil
		}
		if f, ok := e.(*sqlparser.FuncExpr); ok {
			if _, isAgg := expr.AggKindByName(f.Name); isAgg {
				return nil, fmt.Errorf("planner: aggregate %s not found in aggregation output", f)
			}
		}
	}
	switch v := e.(type) {
	case *sqlparser.Ident:
		if b.aggScope != nil {
			return nil, fmt.Errorf("planner: column %q must appear in the GROUP BY clause or be used in an aggregate function", v)
		}
		at, err := resolveIn([]*scope{b.scope}, v)
		if err != nil {
			return nil, err
		}
		c := b.scope.schema.Columns[at.i]
		return &expr.ColRef{Idx: at.i, K: c.Kind, Name: v.String()}, nil
	case *sqlparser.ParamExpr:
		return b.params.bind(v.Idx)
	case *sqlparser.NumLit:
		return bindNumLit(v)
	case *sqlparser.StrLit:
		return expr.NewConst(types.NewString(v.S)), nil
	case *sqlparser.BoolLit:
		return expr.NewConst(types.NewBool(v.V)), nil
	case *sqlparser.NullLit:
		return expr.NewConst(types.Null), nil
	case *sqlparser.DateLit:
		d, err := types.ParseDate(v.S)
		if err != nil {
			return nil, err
		}
		return expr.NewConst(d), nil
	case *sqlparser.IntervalLit:
		return nil, fmt.Errorf("planner: interval literal only valid in date arithmetic")
	case *sqlparser.UnExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		return typed(expr.Apply(strings.ToUpper(v.Op), inner))
	case *sqlparser.BinExpr:
		return b.bindBinary(v)
	case *sqlparser.LikeExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		pat, err := b.bind(v.Pattern)
		if err != nil {
			return nil, err
		}
		return bindLike(inner, pat, v.Negate)
	case *sqlparser.InExpr:
		if v.Sub != nil {
			return nil, fmt.Errorf("planner: IN subquery not valid here (handled as a join)")
		}
		xs, err := b.bindCompared("=", v.E, v.List)
		if err != nil {
			return nil, err
		}
		return &expr.InList{E: xs[0], Items: xs[1:], Negate: v.Negate}, nil
	case *sqlparser.BetweenExpr:
		xs, err := b.bindCompared("<=", v.E, []sqlparser.Expr{v.Lo, v.Hi})
		if err != nil {
			return nil, err
		}
		return &expr.Between{E: xs[0], Lo: xs[1], Hi: xs[2], Negate: v.Negate}, nil
	case *sqlparser.IsNullExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: inner, Negate: v.Negate}, nil
	case *sqlparser.CaseExpr:
		return b.bindCase(v)
	case *sqlparser.CastExpr:
		col, err := ResolveType(v.TypeName)
		if err != nil {
			return nil, err
		}
		e := v.E
		if col.Kind == types.KindDecimal {
			e = decimalText(e)
		}
		inner, err := b.bind(e)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{E: inner, To: col.Kind, Scale: col.Scale}, nil
	case *sqlparser.ExtractExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		switch f := strings.ToLower(v.Field); f {
		case "year", "month", "day":
			return typed(expr.NewFuncCall("extract_"+f, []expr.Expr{inner}))
		}
		return nil, fmt.Errorf("planner: EXTRACT field %q unsupported", v.Field)
	case *sqlparser.FuncExpr:
		if _, isAgg := expr.AggKindByName(v.Name); isAgg {
			return nil, fmt.Errorf("planner: aggregate %s not allowed here", v)
		}
		args := make([]expr.Expr, len(v.Args))
		for i, a := range v.Args {
			bound, err := b.bind(a)
			if err != nil {
				return nil, err
			}
			args[i] = bound
		}
		return typed(expr.NewFuncCall(v.Name, args))
	case *sqlparser.SubqueryExpr:
		if b.subquery == nil {
			return nil, fmt.Errorf("planner: subquery not supported in this context")
		}
		d, err := b.subquery(v.Sub)
		if err != nil {
			return nil, err
		}
		if b.params != nil && perExecution(v.Sub) {
			b.params.oneShot = true
		}
		return expr.NewConst(d), nil
	case *sqlparser.ExistsExpr:
		return nil, fmt.Errorf("planner: EXISTS only supported in WHERE (handled as a join)")
	}
	return nil, fmt.Errorf("planner: cannot bind %T", e)
}

// perExecution reports whether sub reads a placeholder or the clock, so
// that its value may differ between two executions over the same data.
func perExecution(sub *sqlparser.SelectStmt) (found bool) {
	sqlparser.WalkStatement(sub, func(e sqlparser.Expr) {
		f, isFunc := e.(*sqlparser.FuncExpr)
		_, isParam := e.(*sqlparser.ParamExpr)
		found = found || isParam || isFunc && expr.ReadsClock(f.Name)
	})
	return found
}

// bindCompared binds e followed by the values it is compared with, each
// pair as the comparison op's signature takes it (expr.Resolve).
func (b *binder) bindCompared(op string, e sqlparser.Expr, vals []sqlparser.Expr) ([]expr.Expr, error) {
	xs := make([]expr.Expr, 1+len(vals))
	var err error
	if xs[0], err = b.bind(e); err != nil {
		return nil, err
	}
	for i, v := range vals {
		if xs[1+i], err = b.bind(v); err != nil {
			return nil, err
		}
		pair, err := typed(expr.Resolve(op, xs[0], xs[1+i]))
		if err != nil {
			return nil, err
		}
		xs[0], xs[1+i] = pair[0], pair[1]
	}
	return xs, nil
}

// bindLike builds "inner [NOT] LIKE pat" with expr.NewLike's checks: pat
// is a string constant or a placeholder, which stays the pattern until
// expr.Bind, typed as LIKE's signature takes it.
func bindLike(inner, pat expr.Expr, negate bool) (expr.Expr, error) {
	args, err := typed(expr.Resolve("LIKE", inner, pat))
	if err != nil {
		return nil, err
	}
	inner, pat = args[0], args[1]
	var pattern string
	param, isParam := pat.(*expr.Param)
	if c, ok := pat.(*expr.Const); ok && c.D.K == types.KindString {
		pattern = c.D.S
	} else if !isParam {
		return nil, fmt.Errorf("planner: LIKE pattern must be a string literal")
	}
	l, err := expr.NewLike(inner, pattern, negate)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	l.Param = param
	return l, nil
}

// decimalText returns e, a numeric literal written without an exponent,
// as the text a DECIMAL target parses, so that the literal rounds once,
// at the target's scale, from all its digits rather than from the eight
// a bare literal keeps. Any other e comes back as it is.
func decimalText(e sqlparser.Expr) sqlparser.Expr {
	lit, sign := e, ""
	if u, ok := e.(*sqlparser.UnExpr); ok && u.Op == "-" {
		lit, sign = u.E, "-"
	}
	if n, ok := lit.(*sqlparser.NumLit); ok && !strings.ContainsAny(n.S, "eE") {
		return &sqlparser.StrLit{S: sign + n.S}
	}
	return e
}

// bindNumLit types a numeric literal: DOUBLE with an exponent, DECIMAL
// with a point, BIGINT otherwise.
func bindNumLit(v *sqlparser.NumLit) (expr.Expr, error) {
	var d types.Datum
	var err error
	switch {
	case strings.ContainsAny(v.S, "eE"):
		d, err = types.Cast(types.NewString(v.S), types.KindFloat64)
	case strings.Contains(v.S, "."):
		d, err = types.ParseDecimal(v.S)
	default:
		d, err = types.Cast(types.NewString(v.S), types.KindInt64)
	}
	if err != nil {
		return nil, err
	}
	return expr.NewConst(d), nil
}

func (b *binder) bindBinary(v *sqlparser.BinExpr) (expr.Expr, error) {
	op, ok := expr.BinOpFromSQL(v.Op)
	if !ok {
		return nil, fmt.Errorf("planner: unknown operator %q", v.Op)
	}
	l, err := b.bind(v.L)
	if err != nil {
		return nil, err
	}
	var r expr.Expr
	if iv, isInterval := v.R.(*sqlparser.IntervalLit); isInterval && (op == expr.OpAdd || op == expr.OpSub) {
		r, err = expr.Interval(iv.Unit, iv.N)
	} else {
		r, err = b.bind(v.R)
	}
	if err != nil {
		return nil, err
	}
	return typed(expr.Apply(op.String(), l, r))
}

// typed is what the signature table built or took, its refusal the
// planner's.
func typed[T any](v T, err error) (T, error) {
	if err != nil {
		err = fmt.Errorf("planner: %w", err)
	}
	return v, err
}

// pred binds e as the condition of clause — WHERE, HAVING, JOIN/ON,
// CASE/WHEN — which must be BOOLEAN: an untyped $n becomes one.
func (b *binder) pred(e sqlparser.Expr, clause string) (expr.Expr, error) {
	bound, err := b.bind(e)
	if err == nil { // nothing casts to a BOOLEAN: bound stays as it is
		_, err = typed(expr.Resolve(clause, bound))
	}
	return bound, err
}

func (b *binder) bindCase(v *sqlparser.CaseExpr) (expr.Expr, error) {
	out := &expr.Case{}
	var operand expr.Expr
	var err error
	if v.Operand != nil {
		if operand, err = b.bind(v.Operand); err != nil {
			return nil, err
		}
	}
	var results []expr.Expr
	for _, w := range v.Whens {
		var cond, res expr.Expr
		if operand == nil {
			cond, err = b.pred(w.Cond, "CASE/WHEN")
		} else if cond, err = b.bind(w.Cond); err == nil {
			cond, err = typed(expr.Apply("=", operand, cond))
		}
		if err != nil {
			return nil, err
		}
		if res, err = b.bind(w.Result); err != nil {
			return nil, err
		}
		out.Whens, results = append(out.Whens, expr.When{Cond: cond}), append(results, res)
	}
	if v.Else != nil {
		if out.Else, err = b.bind(v.Else); err != nil {
			return nil, err
		}
		results = append(results, out.Else)
	}
	if _, err = typed(expr.Resolve("CASE", results...)); err != nil {
		return nil, err
	}
	for i := range out.Whens {
		out.Whens[i].Result = results[i]
	}
	if out.Else != nil {
		out.Else = results[len(results)-1]
	}
	return out, nil
}

// lookup matches e against the group expressions and aggregates by
// rendered syntax, the standard GROUP BY matching rule.
func (a *aggScope) lookup(e sqlparser.Expr) (int, bool) {
	s := e.String()
	for i, g := range a.groups {
		if g == s {
			return i, true
		}
	}
	for i, ag := range a.aggs {
		if ag == s {
			return len(a.groups) + i, true
		}
	}
	return 0, false
}

// ResolveType maps a SQL type name (possibly parameterized) to a column
// descriptor.
func ResolveType(name string) (types.Column, error) {
	base := strings.ToLower(name)
	var args string
	if i := strings.IndexByte(base, '('); i >= 0 {
		args = base[i+1 : len(base)-1]
		base = base[:i]
	}
	switch base {
	case "int", "int4", "integer", "int2", "smallint":
		return types.Column{Kind: types.KindInt32}, nil
	case "int8", "bigint":
		return types.Column{Kind: types.KindInt64}, nil
	case "float", "float8", "double", "double precision", "real", "float4":
		return types.Column{Kind: types.KindFloat64}, nil
	case "decimal", "numeric":
		if args == "" {
			return types.Column{Kind: types.KindDecimal, Scale: 2}, nil
		}
		mods, scale := strings.Split(args+",0", ","), 0
		prec, err := strconv.Atoi(strings.TrimSpace(mods[0]))
		if err == nil {
			scale, err = strconv.Atoi(strings.TrimSpace(mods[1]))
		}
		switch {
		case err != nil || len(mods) > 3:
			return types.Column{}, fmt.Errorf("planner: invalid NUMERIC type modifier in %q", name)
		case prec < 1 || prec > 1000:
			return types.Column{}, fmt.Errorf("planner: NUMERIC precision %d must be between 1 and 1000", prec)
		case scale < 0 || scale > prec:
			return types.Column{}, fmt.Errorf("planner: NUMERIC scale %d must be between 0 and precision %d", scale, prec)
		}
		return types.Column{Kind: types.KindDecimal, Scale: int8(min(scale, math.MaxInt8))}, nil
	case "char", "varchar", "text", "character", "bpchar":
		return types.Column{Kind: types.KindString}, nil
	case "date":
		return types.Column{Kind: types.KindDate}, nil
	case "bool", "boolean":
		return types.Column{Kind: types.KindBool}, nil
	case "bytea":
		return types.Column{Kind: types.KindBytes}, nil
	}
	return types.Column{}, fmt.Errorf("planner: unknown type %q", name)
}
