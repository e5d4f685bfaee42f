package plan

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"hawq/internal/compress"
	"hawq/internal/expr"
)

func init() {
	// Plan nodes.
	gob.Register(&Scan{})
	gob.Register(&ExternalScan{})
	gob.Register(&Select{})
	gob.Register(&Project{})
	gob.Register(&HashJoin{})
	gob.Register(&NestLoopJoin{})
	gob.Register(&HashAgg{})
	gob.Register(&Sort{})
	gob.Register(&Limit{})
	gob.Register(&Values{})
	gob.Register(&Insert{})
	gob.Register(&Motion{})
	gob.Register(&MotionRecv{})
	gob.Register(&SenderHint{})
	// Expressions.
	gob.Register(&expr.ColRef{})
	gob.Register(&expr.Const{})
	gob.Register(&expr.BinOp{})
	gob.Register(&expr.Not{})
	gob.Register(&expr.Neg{})
	gob.Register(&expr.IsNull{})
	gob.Register(&expr.Like{})
	gob.Register(&expr.InList{})
	gob.Register(&expr.Between{})
	gob.Register(&expr.Case{})
	gob.Register(&expr.Cast{})
	gob.Register(&expr.FuncCall{})
	gob.Register(&expr.Param{})
}

// planCodec compresses serialized plans: complex plans reach megabytes (§3.1).
const planCodec = "quicklz"

// Encode serializes a self-described plan into its wire form: gob-encoded,
// then compressed. The in-process dispatcher shares the *Plan with its
// gang instead; TestSelfDescribedPlanExecutes proves the two equivalent.
func Encode(p *Plan) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("plan: encode: %w", err)
	}
	c, err := compress.Lookup(planCodec)
	if err != nil {
		return nil, err
	}
	return c.Compress(nil, buf.Bytes()), nil
}

// Decode reverses Encode and rebinds the function implementations that
// are not shipped (they live in every segment's read-only bootstrap
// store of native metadata, §3.1).
func Decode(data []byte) (*Plan, error) {
	c, err := compress.Lookup(planCodec)
	if err != nil {
		return nil, err
	}
	raw, err := c.Decompress(nil, data)
	if err != nil {
		return nil, fmt.Errorf("plan: decompress: %w", err)
	}
	var p Plan
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&p); err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	var rebindErr error
	p.Walk(func(n Node) {
		MapExprs(n, func(e expr.Expr) expr.Expr {
			if err := expr.RebindFuncs(e); err != nil && rebindErr == nil {
				rebindErr = err
			}
			return e
		})
	})
	if rebindErr != nil {
		return nil, rebindErr
	}
	return &p, nil
}

// MapExprs calls f on each expression n holds — a scan's filter, a
// Select's or a join's predicate (nil when absent), a Project's list,
// an aggregate's group keys and arguments — and returns n with each
// replaced by what f returned: n itself when f returned every one as it
// was, a shallow copy otherwise. Decode rebinds functions through it and
// the executor binds an execution's values through it, so no caller
// needs to know every node shape.
func MapExprs(n Node, f func(expr.Expr) expr.Expr) Node {
	switch v := n.(type) {
	case *Scan:
		if x := f(v.Filter); x != v.Filter {
			c := *v
			c.Filter = x
			return &c
		}
	case *ExternalScan:
		if x := f(v.Filter); x != v.Filter {
			c := *v
			c.Filter = x
			return &c
		}
	case *Select:
		if x := f(v.Pred); x != v.Pred {
			c := *v
			c.Pred = x
			return &c
		}
	case *Project:
		return mapProject(v, f)
	case *HashJoin:
		if x := f(v.ExtraPred); x != v.ExtraPred {
			c := *v
			c.ExtraPred = x
			return &c
		}
	case *NestLoopJoin:
		if x := f(v.Pred); x != v.Pred {
			c := *v
			c.Pred = x
			return &c
		}
	case *HashAgg:
		return mapAgg(v, f)
	}
	return n
}

// mapProject is MapExprs of a Project. It and mapAgg are functions of
// their own so that MapExprs keeps a small frame on the QE stacks that
// bind as they build (see expr.mapOperands).
func mapProject(v *Project, f func(expr.Expr) expr.Expr) Node {
	es, changed := expr.MapAll(v.Exprs, f)
	if !changed {
		return v
	}
	c := *v
	c.Exprs = es
	return &c
}

// mapAgg is MapExprs of an aggregate.
func mapAgg(v *HashAgg, f func(expr.Expr) expr.Expr) Node {
	groups, changed := expr.MapAll(v.Groups, f)
	aggs, cloned := v.Aggs, false
	for i, a := range v.Aggs {
		if x := f(a.Arg); x != a.Arg {
			if !cloned {
				aggs, cloned = slices.Clone(v.Aggs), true
			}
			aggs[i].Arg = x
		}
	}
	if !changed && !cloned {
		return v
	}
	c := *v
	c.Groups, c.Aggs = groups, aggs
	return &c
}
