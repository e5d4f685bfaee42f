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
	// st is the ANALYZE statistics of the base column this one carries,
	// through projections and joins; nil when unknown or not read.
	st *catalog.ColStats
	// notNull: no row holds NULL here (nullability, DESIGN.md §19).
	notNull bool
}

// scope resolves identifiers to column positions.
type scope struct {
	cols   []scopeCol
	schema *types.Schema
}

// resolve returns the column index for an identifier, or an error.
func (s *scope) resolve(id *sqlparser.Ident) (int, error) {
	switch i := s.index(id); i {
	case -1:
		return 0, fmt.Errorf("planner: column %q does not exist", id)
	case -2:
		return 0, fmt.Errorf("planner: column reference %q is ambiguous", id)
	default:
		return i, nil
	}
}

// index is resolve without the error: the column's position, -1 when no
// column answers to the identifier and -2 when several do.
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
	if err := expr.CheckComparison(bound); err != nil {
		return nil, fmt.Errorf("planner: %w", err)
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
			c := b.aggScope.schema.Columns[col]
			return &expr.ColRef{Idx: col, K: c.Kind, Name: c.Name}, nil
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
		idx, err := b.scope.resolve(v)
		if err != nil {
			return nil, err
		}
		c := b.scope.schema.Columns[idx]
		return &expr.ColRef{Idx: idx, K: c.Kind, Name: v.String()}, nil
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
		if v.Op == "not" {
			return &expr.Not{E: inner}, nil
		}
		if c, ok := inner.(*expr.Const); ok {
			return expr.NewConst(types.Neg(c.D)), nil
		}
		return &expr.Neg{E: inner}, nil
	case *sqlparser.BinExpr:
		return b.bindBinary(v)
	case *sqlparser.LikeExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		pat, ok := v.Pattern.(*sqlparser.StrLit)
		if !ok {
			// A $n pattern works in specific mode, where the placeholder
			// binds to its string value at plan time (generic plans cannot
			// cache a LIKE pattern and fall back to specific planning).
			if pe, isParam := v.Pattern.(*sqlparser.ParamExpr); isParam {
				bound, err := b.params.bind(pe.Idx)
				if err != nil {
					return nil, err
				}
				if c, isConst := bound.(*expr.Const); isConst && c.D.K == types.KindString {
					return &expr.Like{E: inner, Pattern: c.D.S, Negate: v.Negate}, nil
				}
			}
			return nil, fmt.Errorf("planner: LIKE pattern must be a string literal")
		}
		return &expr.Like{E: inner, Pattern: pat.S, Negate: v.Negate}, nil
	case *sqlparser.InExpr:
		if v.Sub != nil {
			return nil, fmt.Errorf("planner: IN subquery not valid here (handled as a join)")
		}
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		items := make([]expr.Expr, len(v.List))
		for i, it := range v.List {
			if items[i], err = b.bind(it); err != nil {
				return nil, err
			}
			b.params.infer(items[i], inner)
			_, items[i] = coerceComparison(inner, items[i])
		}
		return &expr.InList{E: inner, Items: items, Negate: v.Negate}, nil
	case *sqlparser.BetweenExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(v.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(v.Hi)
		if err != nil {
			return nil, err
		}
		b.params.infer(lo, inner)
		b.params.infer(hi, inner)
		_, lo = coerceComparison(inner, lo)
		_, hi = coerceComparison(inner, hi)
		return &expr.Between{E: inner, Lo: lo, Hi: hi, Negate: v.Negate}, nil
	case *sqlparser.IsNullExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: inner, Negate: v.Negate}, nil
	case *sqlparser.CaseExpr:
		return b.bindCase(v)
	case *sqlparser.CastExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		col, err := ResolveType(v.TypeName)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{E: inner, To: col.Kind}, nil
	case *sqlparser.ExtractExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(v.Field) {
		case "year":
			return expr.NewFuncCall("extract_year", []expr.Expr{inner})
		case "month":
			return expr.NewFuncCall("extract_month", []expr.Expr{inner})
		case "day":
			return expr.NewFuncCall("extract_day", []expr.Expr{inner})
		default:
			return nil, fmt.Errorf("planner: EXTRACT field %q unsupported", v.Field)
		}
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
		return expr.NewFuncCall(v.Name, args)
	case *sqlparser.SubqueryExpr:
		if b.subquery == nil {
			return nil, fmt.Errorf("planner: subquery not supported in this context")
		}
		d, err := b.subquery(v.Sub)
		if err != nil {
			return nil, err
		}
		return expr.NewConst(d), nil
	case *sqlparser.ExistsExpr:
		return nil, fmt.Errorf("planner: EXISTS only supported in WHERE (handled as a join)")
	}
	return nil, fmt.Errorf("planner: cannot bind %T", e)
}

func bindNumLit(v *sqlparser.NumLit) (expr.Expr, error) {
	if strings.ContainsAny(v.S, ".eE") {
		if strings.ContainsAny(v.S, "eE") {
			d, err := types.Cast(types.NewString(v.S), types.KindFloat64)
			if err != nil {
				return nil, err
			}
			return expr.NewConst(d), nil
		}
		d, err := types.ParseDecimal(v.S)
		if err != nil {
			return nil, err
		}
		return expr.NewConst(d), nil
	}
	d, err := types.Cast(types.NewString(v.S), types.KindInt64)
	if err != nil {
		return nil, err
	}
	return expr.NewConst(d), nil
}

func (b *binder) bindBinary(v *sqlparser.BinExpr) (expr.Expr, error) {
	// Date +/- interval lowers to the date functions.
	if iv, ok := v.R.(*sqlparser.IntervalLit); ok && (v.Op == "+" || v.Op == "-") {
		l, err := b.bind(v.L)
		if err != nil {
			return nil, err
		}
		n := iv.N
		if v.Op == "-" {
			n = -n
		}
		fn := map[string]string{"day": "add_days", "month": "add_months", "year": "add_years"}[iv.Unit]
		return expr.NewFuncCall(fn, []expr.Expr{l, expr.NewConst(types.NewInt64(n))})
	}
	l, err := b.bind(v.L)
	if err != nil {
		return nil, err
	}
	r, err := b.bind(v.R)
	if err != nil {
		return nil, err
	}
	var op expr.BinOpKind
	switch v.Op {
	case "+":
		op = expr.OpAdd
	case "-":
		op = expr.OpSub
	case "*":
		op = expr.OpMul
	case "/":
		op = expr.OpDiv
	case "%":
		op = expr.OpMod
	case "=":
		op = expr.OpEq
	case "<>":
		op = expr.OpNe
	case "<":
		op = expr.OpLt
	case "<=":
		op = expr.OpLe
	case ">":
		op = expr.OpGt
	case ">=":
		op = expr.OpGe
	case "and":
		op = expr.OpAnd
	case "or":
		op = expr.OpOr
	case "||":
		op = expr.OpConcat
	default:
		return nil, fmt.Errorf("planner: unknown operator %q", v.Op)
	}
	b.params.infer(l, r)
	b.params.infer(r, l)
	// Comparing a date column with a string literal: coerce the literal.
	if op.IsComparison() {
		l, r = coerceComparison(l, r)
	}
	return expr.NewBinOp(op, l, r), nil
}

func coerceComparison(l, r expr.Expr) (expr.Expr, expr.Expr) {
	if l.Kind() == types.KindDate && r.Kind() == types.KindString {
		if c, ok := r.(*expr.Const); ok {
			if d, err := types.Cast(c.D, types.KindDate); err == nil {
				return l, expr.NewConst(d)
			}
		}
	}
	if r.Kind() == types.KindDate && l.Kind() == types.KindString {
		if c, ok := l.(*expr.Const); ok {
			if d, err := types.Cast(c.D, types.KindDate); err == nil {
				return expr.NewConst(d), r
			}
		}
	}
	return l, r
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
	for _, w := range v.Whens {
		cond, err := b.bind(w.Cond)
		if err != nil {
			return nil, err
		}
		if operand != nil {
			_, cond = coerceComparison(operand, cond)
			cond = expr.NewBinOp(expr.OpEq, operand, cond)
			if err := expr.CheckComparison(cond); err != nil {
				return nil, fmt.Errorf("planner: %w", err)
			}
		}
		res, err := b.bind(w.Result)
		if err != nil {
			return nil, err
		}
		out.Whens = append(out.Whens, expr.When{Cond: cond, Result: res})
	}
	if v.Else != nil {
		if out.Else, err = b.bind(v.Else); err != nil {
			return nil, err
		}
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
	case "int", "int4", "integer":
		return types.Column{Kind: types.KindInt32}, nil
	case "int8", "bigint":
		return types.Column{Kind: types.KindInt64}, nil
	case "int2", "smallint":
		return types.Column{Kind: types.KindInt32}, nil
	case "float", "float8", "double", "double precision", "real", "float4":
		return types.Column{Kind: types.KindFloat64}, nil
	case "decimal", "numeric":
		scale := int8(2)
		if args != "" {
			parts := strings.Split(args, ",")
			if len(parts) == 2 {
				var s int
				fmt.Sscanf(parts[1], "%d", &s)
				scale = int8(s)
			} else {
				scale = 0
			}
		}
		return types.Column{Kind: types.KindDecimal, Scale: scale}, nil
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
