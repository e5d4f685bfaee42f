package plan

import (
	"bytes"
	"encoding/gob"
	"fmt"

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
		for _, e := range NodeExprs(n) {
			if err := expr.RebindFuncs(e); err != nil && rebindErr == nil {
				rebindErr = err
			}
		}
	})
	if rebindErr != nil {
		return nil, rebindErr
	}
	return &p, nil
}

// NodeExprs returns the expressions held by a node, so callers (the
// executor, clock binding) can walk a plan's scalar surface without
// knowing every node shape.
func NodeExprs(n Node) []expr.Expr {
	switch v := n.(type) {
	case *Scan:
		return []expr.Expr{v.Filter}
	case *ExternalScan:
		return []expr.Expr{v.Filter}
	case *Select:
		return []expr.Expr{v.Pred}
	case *Project:
		return v.Exprs
	case *HashJoin:
		return []expr.Expr{v.ExtraPred}
	case *NestLoopJoin:
		return []expr.Expr{v.Pred}
	case *HashAgg:
		out := append([]expr.Expr{}, v.Groups...)
		for _, a := range v.Aggs {
			out = append(out, a.Arg)
		}
		return out
	}
	return nil
}
