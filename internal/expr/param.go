package expr

import (
	"fmt"

	"hawq/internal/types"
)

// Param is a $n placeholder in a generic (parameterized) plan. The
// planner emits Param nodes when planning a prepared statement without
// argument values so the plan can be cached and reused; BindParams fills
// V on the statement's own clone before dispatch. Fields are exported so the
// node survives the gob plan codec.
type Param struct {
	Idx   int        // 0-based parameter index
	K     types.Kind // inferred result kind; types.KindNull when unknown
	V     types.Datum
	Bound bool
}

// Eval implements Expr. Evaluating an unbound parameter is a protocol
// error (EXECUTE must bind every placeholder first).
func (p *Param) Eval(types.Row) (types.Datum, error) {
	if !p.Bound {
		return types.Null, fmt.Errorf("expr: parameter $%d has no value", p.Idx+1)
	}
	return p.V, nil
}

// Kind implements Expr.
func (p *Param) Kind() types.Kind { return p.K }

// String renders the expression as SQL-like text for EXPLAIN output.
func (p *Param) String() string { return fmt.Sprintf("$%d", p.Idx+1) }

// BindParams binds every Param under e to its positional value. Values
// must already be cast to the parameter's inferred kind.
func BindParams(e Expr, vals []types.Datum) error {
	var err error
	Walk(e, func(x Expr) {
		p, ok := x.(*Param)
		if !ok {
			return
		}
		if p.Idx < 0 || p.Idx >= len(vals) {
			if err == nil {
				err = fmt.Errorf("expr: parameter $%d out of range (%d values)", p.Idx+1, len(vals))
			}
			return
		}
		p.V = vals[p.Idx]
		p.Bound = true
	})
	return err
}
