package expr

import (
	"fmt"

	"hawq/internal/clock"
	"hawq/internal/types"
)

// Param is a $n placeholder in a generic (parameterized) plan. The
// planner emits Param nodes when planning a prepared statement without
// argument values so the plan can be cached and reused; an execution
// never writes one: Bind gives it a copy of the expression with a
// constant in the placeholder's place. Fields are exported so the node
// survives the gob plan codec.
type Param struct {
	Idx int        // 0-based parameter index
	K   types.Kind // inferred result kind; types.KindNull when unknown
}

// Eval implements Expr. A placeholder has no value of its own: an
// execution evaluates the expression Bind returned.
func (p *Param) Eval(types.Row) (types.Datum, error) {
	return types.Null, fmt.Errorf("expr: parameter $%d has no value", p.Idx+1)
}

// Kind implements Expr.
func (p *Param) Kind() types.Kind { return p.K }

// String renders the expression as SQL-like text for EXPLAIN output.
func (p *Param) String() string { return fmt.Sprintf("$%d", p.Idx+1) }

// Bind returns e as one execution evaluates it: each $n placeholder
// replaced by a constant holding args[n-1] (already cast to its kind),
// and each clock builtin (current_date) by a constant holding its value
// at clk (nil: the wall clock). Only the nodes on the way to one of
// those are copied, and each comparison copied is checked again, its
// operands now of their values' kinds (CheckComparison). Any other
// expression comes back as it is: a plan's expressions are shared by
// every execution of it and never written.
func Bind(e Expr, args []types.Datum, clk clock.Clock) (Expr, error) {
	var err error
	var bind func(Expr) Expr
	bind = func(e Expr) Expr {
		var d types.Datum
		switch v := e.(type) {
		case *ColRef, *Const:
			return e
		case *Param:
			if v.Idx >= len(args) {
				_, err = v.Eval(nil) // no argument for it
				return e
			}
			return NewConst(args[v.Idx])
		case *FuncCall:
			if v.impl.evalClock != nil && err == nil {
				// A clock builtin takes no argument.
				d, err = v.impl.evalClock(clock.Default(clk), nil)
				return NewConst(d)
			}
		}
		c := mapOperands(e, bind)
		if c != e && err == nil {
			err = CheckComparison(c)
		}
		return c
	}
	if out := bind(e); err == nil {
		return out, nil
	}
	return e, err
}
