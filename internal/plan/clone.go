package plan

import (
	"fmt"

	"hawq/internal/expr"
)

// Clone returns a structurally independent copy of the plan: every
// slice, node, and expression is fresh, while immutable leaves (table
// descriptors, schemas, segment-file lists, key-column slices) are
// shared. It exists for the plan cache: a cached plan is handed out as
// a clone per execution, so parameter binding, resource stamping,
// deferred direct dispatch and clock binding mutate only the copy — the
// one copy a statement makes: every gang member executes it as is.
func (p *Plan) Clone() (*Plan, error) {
	cp := *p
	cp.Slices = make([]*Slice, len(p.Slices))
	for i, s := range p.Slices {
		root, err := cloneNode(s.Root)
		if err != nil {
			return nil, err
		}
		c := *s
		c.Root = root
		cp.Slices[i] = &c
	}
	return &cp, nil
}

func cloneExpr(e expr.Expr) (expr.Expr, error) {
	c, ok := expr.Clone(e)
	if !ok {
		return nil, fmt.Errorf("plan: clone: unsupported expression %T", e)
	}
	return c, nil
}

// cloneNode deep-copies an operator tree. Slice-valued fields that no
// execution path mutates (projections, join keys, runtime-filter lists,
// literal rows, insert targets) are shared; fields that BindParams or
// the executor rewrite (expressions) are copied.
func cloneNode(n Node) (Node, error) {
	if n == nil {
		return nil, nil
	}
	switch v := n.(type) {
	case *Scan:
		c := *v
		f, err := cloneExpr(v.Filter)
		if err != nil {
			return nil, err
		}
		c.Filter = f
		return &c, nil
	case *ExternalScan:
		c := *v
		f, err := cloneExpr(v.Filter)
		if err != nil {
			return nil, err
		}
		c.Filter = f
		return &c, nil
	case *Select:
		c := *v
		in, err := cloneNode(v.Input)
		if err != nil {
			return nil, err
		}
		pred, err := cloneExpr(v.Pred)
		if err != nil {
			return nil, err
		}
		c.Input, c.Pred = in, pred
		return &c, nil
	case *Project:
		c := *v
		in, err := cloneNode(v.Input)
		if err != nil {
			return nil, err
		}
		c.Input = in
		c.Exprs = make([]expr.Expr, len(v.Exprs))
		for i, e := range v.Exprs {
			ce, err := cloneExpr(e)
			if err != nil {
				return nil, err
			}
			c.Exprs[i] = ce
		}
		return &c, nil
	case *HashJoin:
		c := *v
		l, err := cloneNode(v.Left)
		if err != nil {
			return nil, err
		}
		r, err := cloneNode(v.Right)
		if err != nil {
			return nil, err
		}
		ep, err := cloneExpr(v.ExtraPred)
		if err != nil {
			return nil, err
		}
		c.Left, c.Right, c.ExtraPred = l, r, ep
		return &c, nil
	case *NestLoopJoin:
		c := *v
		l, err := cloneNode(v.Left)
		if err != nil {
			return nil, err
		}
		r, err := cloneNode(v.Right)
		if err != nil {
			return nil, err
		}
		pred, err := cloneExpr(v.Pred)
		if err != nil {
			return nil, err
		}
		c.Left, c.Right, c.Pred = l, r, pred
		return &c, nil
	case *HashAgg:
		c := *v
		in, err := cloneNode(v.Input)
		if err != nil {
			return nil, err
		}
		c.Input = in
		c.Groups = make([]expr.Expr, len(v.Groups))
		for i, g := range v.Groups {
			cg, err := cloneExpr(g)
			if err != nil {
				return nil, err
			}
			c.Groups[i] = cg
		}
		c.Aggs = make([]expr.AggSpec, len(v.Aggs))
		for i, a := range v.Aggs {
			ca, ok := expr.CloneAggSpec(a)
			if !ok {
				return nil, fmt.Errorf("plan: clone: unsupported aggregate argument %T", a.Arg)
			}
			c.Aggs[i] = ca
		}
		return &c, nil
	case *Sort:
		c := *v
		in, err := cloneNode(v.Input)
		if err != nil {
			return nil, err
		}
		c.Input = in
		return &c, nil
	case *Limit:
		c := *v
		in, err := cloneNode(v.Input)
		if err != nil {
			return nil, err
		}
		c.Input = in
		return &c, nil
	case *Values:
		c := *v
		return &c, nil
	case *Insert:
		c := *v
		in, err := cloneNode(v.Input)
		if err != nil {
			return nil, err
		}
		c.Input = in
		return &c, nil
	case *Motion:
		c := *v
		in, err := cloneNode(v.Input)
		if err != nil {
			return nil, err
		}
		c.Input = in
		return &c, nil
	case *MotionRecv:
		c := *v
		return &c, nil
	case *SenderHint:
		c := *v
		in, err := cloneNode(v.Input)
		if err != nil {
			return nil, err
		}
		c.Input = in
		return &c, nil
	default:
		return nil, fmt.Errorf("plan: clone: unsupported node %T", n)
	}
}
