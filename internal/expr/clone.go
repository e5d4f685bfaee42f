package expr

// Clone returns a deep copy of e: no node is shared with the original,
// so binding parameters or a clock into the copy cannot be observed
// through the source tree. Plan caching depends on this — the cached
// plan's expressions stay pristine while every execution mutates its
// own clone. The second result is false when e contains a node type
// Clone does not know (the copy is unusable and the caller must fall
// back to building a fresh expression).
func Clone(e Expr) (Expr, bool) {
	if e == nil {
		return nil, true
	}
	switch v := e.(type) {
	case *ColRef:
		c := *v
		return &c, true
	case *Const:
		c := *v
		return &c, true
	case *Param:
		c := *v
		return &c, true
	case *BinOp:
		l, ok1 := Clone(v.L)
		r, ok2 := Clone(v.R)
		return &BinOp{Op: v.Op, L: l, R: r}, ok1 && ok2
	case *Not:
		in, ok := Clone(v.E)
		return &Not{E: in}, ok
	case *Neg:
		in, ok := Clone(v.E)
		return &Neg{E: in}, ok
	case *IsNull:
		in, ok := Clone(v.E)
		return &IsNull{E: in, Negate: v.Negate}, ok
	case *Like:
		in, ok := Clone(v.E)
		return &Like{E: in, Pattern: v.Pattern, Negate: v.Negate}, ok
	case *InList:
		in, ok := Clone(v.E)
		items := make([]Expr, len(v.Items))
		for i, it := range v.Items {
			var ok2 bool
			items[i], ok2 = Clone(it)
			ok = ok && ok2
		}
		return &InList{E: in, Items: items, Negate: v.Negate}, ok
	case *Between:
		ee, ok1 := Clone(v.E)
		lo, ok2 := Clone(v.Lo)
		hi, ok3 := Clone(v.Hi)
		return &Between{E: ee, Lo: lo, Hi: hi, Negate: v.Negate}, ok1 && ok2 && ok3
	case *Case:
		ok := true
		whens := make([]When, len(v.Whens))
		for i, w := range v.Whens {
			var ok2, ok3 bool
			whens[i].Cond, ok2 = Clone(w.Cond)
			whens[i].Result, ok3 = Clone(w.Result)
			ok = ok && ok2 && ok3
		}
		els, ok4 := Clone(v.Else)
		return &Case{Whens: whens, Else: els}, ok && ok4
	case *Cast:
		in, ok := Clone(v.E)
		return &Cast{E: in, To: v.To, Scale: v.Scale}, ok
	case *FuncCall:
		ok := true
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			var ok2 bool
			args[i], ok2 = Clone(a)
			ok = ok && ok2
		}
		// impl is the stateless builtin table entry — sharing it skips
		// RebindFuncs on the clone; clk is rebound per execution anyway.
		return &FuncCall{Name: v.Name, Args: args, impl: v.impl, clk: v.clk}, ok
	default:
		return nil, false
	}
}

// CloneAggSpec deep-copies one aggregate spec (its argument expression
// is the only tree-valued field).
func CloneAggSpec(s AggSpec) (AggSpec, bool) {
	arg, ok := Clone(s.Arg)
	return AggSpec{Kind: s.Kind, Arg: arg, Distinct: s.Distinct}, ok
}
