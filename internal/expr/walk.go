package expr

import (
	"fmt"

	"hawq/internal/clock"
	"hawq/internal/types"
)

// Walk visits e and every sub-expression in evaluation order.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	operands(e, func(x Expr) { Walk(x, fn) })
}

// operands calls fn on each direct operand of e, in evaluation order.
func operands(e Expr, fn func(Expr)) {
	each := func(xs ...Expr) {
		for _, x := range xs {
			if x != nil {
				fn(x)
			}
		}
	}
	switch v := e.(type) {
	case *BinOp:
		each(v.L, v.R)
	case *Not:
		each(v.E)
	case *Neg:
		each(v.E)
	case *IsNull:
		each(v.E)
	case *Like:
		each(v.E)
	case *InList:
		each(v.E)
		each(v.Items...)
	case *Between:
		each(v.E, v.Lo, v.Hi)
	case *Case:
		for _, w := range v.Whens {
			each(w.Cond, w.Result)
		}
		each(v.Else)
	case *Cast:
		each(v.E)
	case *FuncCall:
		each(v.Args...)
	}
}

// Rebind restores the function implementation pointer after the
// expression crossed a serialization boundary (self-described plans ship
// only the function name; implementations live in each segment's
// read-only bootstrap store of native metadata, §3.1).
func (f *FuncCall) Rebind() error {
	impl, ok := builtins[f.Name]
	if !ok {
		return fmt.Errorf("expr: unknown function %s after decode", f.Name)
	}
	f.impl = impl
	return nil
}

// RebindFuncs walks an expression and rebinds every FuncCall.
func RebindFuncs(e Expr) error {
	var err error
	Walk(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && f.impl == nil {
			if e2 := f.Rebind(); e2 != nil && err == nil {
				err = e2
			}
		}
	})
	return err
}

// BindClock injects the query's clock into every FuncCall under e, so
// time-dependent builtins (current_date) read executor time instead of
// the wall. A nil clock leaves evaluation on clock.Wall.
func BindClock(e Expr, c clock.Clock) {
	Walk(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok {
			f.clk = c
		}
	})
}

// Fold evaluates e at bind time when its operands are literals (the
// binder folds from the leaves up, so that is a subtree of literals
// alone), and returns the constant in its place: add_days(1998-12-01, -90) is
// 1998-09-02 and 1 - 0.05 is 0.95 before the plan exists, so zone maps,
// partition elimination, the filter kernels and EXPLAIN all see the
// value. Anything else comes back as it is. Two things are never
// literals: a $n placeholder, whose value differs between executions of
// one cached plan, and a clock builtin such as current_date, whose value
// is the execution's, not the plan's; both wait for ExecConst. A literal
// expression that cannot be evaluated — abs('x') panics in types.Compare
// — is a statement the binder refuses, here rather than in a QE.
func Fold(e Expr) (folded Expr, err error) {
	literal := true
	switch v := e.(type) {
	case *Const, *ColRef, *Param:
		return e, nil
	case *FuncCall:
		literal = v.impl.evalClock == nil
	}
	operands(e, func(x Expr) {
		_, isConst := x.(*Const)
		literal = literal && isConst
	})
	if !literal {
		return e, nil
	}
	defer func() {
		if r := recover(); r != nil {
			folded, err = nil, fmt.Errorf("expr: cannot evaluate %s: %v", e, r)
		}
	}()
	d, err := e.Eval(nil)
	if err != nil {
		return nil, err
	}
	return NewConst(d), nil
}

// CheckComparison reports an error when x is a comparison — one of
// = <> < <= > >=, BETWEEN, IN — of two operands types.Compare cannot
// order (types.Comparable): a DATE with a BIGINT, a TEXT with a number.
// Compare panics on those, inside a QE, so no such node may reach a
// plan: the binder asks of every comparison it builds, and the plan asks
// again once placeholders have values, a bound $n counting as the kind
// of its value. NULL and operands of unknown kind compare with
// everything (to NULL). Only x itself is looked at, not what is under it.
func CheckComparison(x Expr) error {
	kind := func(e Expr) types.Kind {
		if p, ok := e.(*Param); ok && p.Bound {
			return p.V.K
		}
		return e.Kind()
	}
	pair := func(l, r Expr) error {
		if lk, rk := kind(l), kind(r); lk != types.KindNull && rk != types.KindNull && !types.Comparable(lk, rk) {
			return fmt.Errorf("cannot compare %s with %s in %s", lk, rk, x)
		}
		return nil
	}
	switch v := x.(type) {
	case *BinOp:
		if v.Op.IsComparison() {
			return pair(v.L, v.R)
		}
	case *Between:
		if err := pair(v.E, v.Lo); err != nil {
			return err
		}
		return pair(v.E, v.Hi)
	case *InList:
		for _, item := range v.Items {
			if err := pair(v.E, item); err != nil {
				return err
			}
		}
	}
	return nil
}
