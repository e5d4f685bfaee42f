package plan

import (
	"fmt"
	"slices"

	"hawq/internal/expr"
	"hawq/internal/types"
)

// BindParams gives the plan an execution's arguments: each cast to the
// kind the planner inferred at prepare time, kept in Args, where
// executor.Build reads them as it binds an operator's expressions
// (expr.Bind), and hashed into the direct-dispatch choices the plan
// deferred. It writes only the plan's header — call it on a Clone of a
// shared plan — and never a node.
func (p *Plan) BindParams(args []types.Datum) error {
	// A plan may reference a prefix of the EXECUTE arguments: a scalar
	// subquery planned on its own uses only the placeholders it
	// mentions. Extra arguments are fine; missing ones are not.
	if len(args) < len(p.ParamKinds) {
		return fmt.Errorf("plan: expected %d parameters, got %d", len(p.ParamKinds), len(args))
	}
	cast := make([]types.Datum, len(p.ParamKinds))
	for i := range p.ParamKinds {
		a := args[i]
		k := p.ParamKinds[i]
		if k == types.KindNull || a.IsNull() {
			cast[i] = a
			continue
		}
		c, err := types.Cast(a, k)
		if err != nil {
			return fmt.Errorf("plan: parameter $%d: %w", i+1, err)
		}
		cast[i] = c
	}
	// A placeholder whose kind nothing fixed at prepare time arrives as
	// whatever the client sent: it must still be something its
	// comparison can order, and that is asked here, on the QD, of a bound
	// copy (expr.Bind checks each comparison it copies) before any QE
	// compares a row. The others were cast to the kind the binder checked.
	if slices.Contains(p.ParamKinds, types.KindNull) {
		var bindErr error
		p.Walk(func(n Node) {
			MapExprs(n, func(e expr.Expr) expr.Expr {
				if _, err := expr.Bind(e, cast, nil); err != nil && bindErr == nil {
					bindErr = fmt.Errorf("plan: %w", err)
				}
				return e
			})
		})
		if bindErr != nil {
			return bindErr
		}
	}
	p.Args = cast
	return p.pinDeferredSlices(cast)
}

// pinDeferredSlices makes the direct-dispatch decisions a generic plan
// deferred: each slice whose distribution keys are pinned by
// placeholders runs on the single segment hashing the bound values,
// exactly as a plan-time constant would have (§3's single value lookup,
// preserved across the plan cache). The placement hash hashes
// equal-comparing datums equally, so casting the argument to the
// inferred column kind keeps the choice consistent with the insert and
// redistribute paths.
func (p *Plan) pinDeferredSlices(cast []types.Datum) error {
	for _, s := range p.Slices {
		if len(s.DeferredKeys) == 0 {
			continue
		}
		at, err := KeySegment(s.DeferredKeys, cast, p.NumSegments)
		if err != nil {
			return err
		}
		s.Segments = []int{at}
	}
	return nil
}
