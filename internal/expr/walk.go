package expr

import (
	"fmt"
	"slices"

	"hawq/internal/types"
)

// Walk visits e and every sub-expression in evaluation order.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	mapOperands(e, func(x Expr) Expr {
		Walk(x, fn)
		return x
	})
}

// mapOperands calls f on each direct operand of e, in evaluation order
// (an absent ELSE is skipped), and returns e with each replaced by what
// f returned: e itself when f returned every operand as it was, a copy
// otherwise. Walk visits through it and Bind copies through it. It
// takes no closure of its own: Bind runs it on every QE that builds an
// operator over a placeholder, on the QE's fresh goroutine stack, and a
// bigger frame there costs a stack copy per QE per statement.
func mapOperands(e Expr, f func(Expr) Expr) Expr {
	switch v := e.(type) {
	case *BinOp:
		if l, r := f(v.L), f(v.R); l != v.L || r != v.R {
			return &BinOp{Op: v.Op, L: l, R: r}
		}
	case *Not:
		if x := f(v.E); x != v.E {
			return &Not{E: x}
		}
	case *Neg:
		if x := f(v.E); x != v.E {
			return &Neg{E: x}
		}
	case *IsNull:
		if x := f(v.E); x != v.E {
			return &IsNull{E: x, Negate: v.Negate}
		}
	case *Like:
		if x := f(v.E); x != v.E {
			return &Like{E: x, Pattern: v.Pattern, Negate: v.Negate}
		}
	case *InList:
		x := f(v.E)
		if items, changed := MapAll(v.Items, f); changed || x != v.E {
			return &InList{E: x, Items: items, Negate: v.Negate}
		}
	case *Between:
		if x, lo, hi := f(v.E), f(v.Lo), f(v.Hi); x != v.E || lo != v.Lo || hi != v.Hi {
			return &Between{E: x, Lo: lo, Hi: hi, Negate: v.Negate}
		}
	case *Case:
		return mapCase(v, f)
	case *Cast:
		if x := f(v.E); x != v.E {
			return &Cast{E: x, To: v.To, Scale: v.Scale}
		}
	case *FuncCall:
		if args, changed := MapAll(v.Args, f); changed {
			return &FuncCall{Name: v.Name, Args: args, impl: v.impl}
		}
	}
	return e
}

// MapAll returns xs with f applied to each element: xs itself and false
// when f returned every one as it was, a copy and true otherwise.
func MapAll(xs []Expr, f func(Expr) Expr) ([]Expr, bool) {
	out, changed := xs, false
	for i, x := range xs {
		if y := f(x); y != x {
			if !changed {
				out, changed = slices.Clone(xs), true
			}
			out[i] = y
		}
	}
	return out, changed
}

// mapCase is mapOperands of a CASE.
func mapCase(v *Case, f func(Expr) Expr) Expr {
	whens, changed := v.Whens, false
	for i, w := range v.Whens {
		if c, r := f(w.Cond), f(w.Result); c != w.Cond || r != w.Result {
			if !changed {
				whens, changed = slices.Clone(v.Whens), true
			}
			whens[i] = When{Cond: c, Result: r}
		}
	}
	els := v.Else
	if els != nil {
		els = f(els)
	}
	if !changed && els == v.Else {
		return v
	}
	return &Case{Whens: whens, Else: els}
}

// RebindFuncs restores the function implementation of every FuncCall
// under e after the expression crossed a serialization boundary
// (self-described plans ship only the function name; implementations
// live in each segment's read-only bootstrap store of native metadata,
// §3.1).
func RebindFuncs(e Expr) error {
	var err error
	Walk(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && f.impl == nil {
			if f.impl = builtins[f.Name]; f.impl == nil && err == nil {
				err = fmt.Errorf("expr: unknown function %s after decode", f.Name)
			}
		}
	})
	return err
}

// Fold evaluates e at bind time when its operands are literals (the
// binder folds from the leaves up, so that is a subtree of literals
// alone), and returns the constant in its place: add_days(1998-12-01, -90) is
// 1998-09-02 and 1 - 0.05 is 0.95 before the plan exists, so zone maps,
// partition elimination, the filter kernels and EXPLAIN all see the
// value. Anything else comes back as it is. Two things are never
// literals: a $n placeholder, whose value differs between executions of
// one cached plan, and a clock builtin such as current_date, whose value
// is the execution's, not the plan's; both wait for Bind. A literal
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
	mapOperands(e, func(x Expr) Expr {
		_, isConst := x.(*Const)
		literal = literal && isConst
		return x
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
// plan: the binder asks of every comparison it builds, and Bind asks
// again of each it copies, a placeholder now a constant of its value's
// kind. NULL and operands of unknown kind compare with everything (to
// NULL). Only x itself is looked at, not what is under it.
func CheckComparison(x Expr) error {
	pair := func(l, r Expr) error {
		if lk, rk := l.Kind(), r.Kind(); lk != types.KindNull && rk != types.KindNull && !types.Comparable(lk, rk) {
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
