package planner

import (
	"hawq/internal/expr"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// The exported binding facade lets other engines (the Stinger baseline)
// reuse HAWQ's expression binding without duplicating it. Only binding is
// shared: planning stays engine-specific, which is the point of the
// comparison.

// BindScope names the columns visible to Bind.
type BindScope struct {
	// Quals[i]/Names[i] qualify column i ("" qualifier matches any).
	Quals  []string
	Names  []string
	Schema *types.Schema
}

func (b BindScope) toScope() *scope {
	cols := make([]scopeCol, len(b.Names))
	for i := range b.Names {
		cols[i] = scopeCol{qual: b.Quals[i], name: b.Names[i]}
	}
	return &scope{cols: cols, schema: b.Schema}
}

// Bind resolves a syntax expression against a scope. subq, when non-nil,
// evaluates scalar subqueries.
func Bind(e sqlparser.Expr, sc BindScope, subq func(*sqlparser.SelectStmt) (types.Datum, error)) (expr.Expr, error) {
	b := &binder{scope: sc.toScope(), subquery: subq}
	return b.bind(e)
}

// BindPredicate resolves a WHERE conjunct against a scope: Bind, then
// BOOLEAN or refused.
func BindPredicate(e sqlparser.Expr, sc BindScope, subq func(*sqlparser.SelectStmt) (types.Datum, error)) (expr.Expr, error) {
	return (&binder{scope: sc.toScope(), subquery: subq}).pred(e, "WHERE")
}

// BindWithAggregates resolves an expression over an aggregation output:
// groups and aggs are the rendered syntax of the GROUP BY expressions and
// aggregate calls, matched by string as in SQL; schema describes the
// aggregate output row (groups first, then aggregates).
func BindWithAggregates(e sqlparser.Expr, groups, aggs []string, schema *types.Schema, subq func(*sqlparser.SelectStmt) (types.Datum, error)) (expr.Expr, error) {
	b := &binder{
		scope:    &scope{schema: schema},
		aggScope: &aggScope{groups: groups, aggs: aggs, schema: schema},
		subquery: subq,
	}
	return b.bind(e)
}

// EvalConst binds and evaluates a constant scalar expression — no
// columns, placeholders, or subqueries. EXECUTE argument lists go
// through this.
func EvalConst(e sqlparser.Expr) (types.Datum, error) {
	b := &binder{scope: &scope{schema: types.NewSchema()}}
	bound, err := b.bind(e)
	if err != nil {
		return types.Null, err
	}
	return bound.Eval(nil)
}

// CollectAggregates finds the distinct aggregate calls in an expression
// (by rendered syntax), appending to out/seen.
func CollectAggregates(e sqlparser.Expr, out *[]*sqlparser.FuncExpr, seen map[string]bool) {
	collectAggs(e, out, seen)
}

// Conjuncts flattens an AND tree into its conjuncts.
func Conjuncts(e sqlparser.Expr) []sqlparser.Expr { return conjuncts(e) }

// EquiJoinSides recognizes "a.x = b.y" conjuncts.
func EquiJoinSides(e sqlparser.Expr) (*sqlparser.Ident, *sqlparser.Ident, bool) {
	return equiJoinSides(e)
}

// ResolveIn reports whether an identifier resolves in the scope.
func ResolveIn(id *sqlparser.Ident, sc BindScope) (int, bool) {
	at, err := resolveIn([]*scope{sc.toScope()}, id)
	return at.i, err == nil
}
