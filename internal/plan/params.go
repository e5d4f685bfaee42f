package plan

import (
	"fmt"
	"slices"

	"hawq/internal/expr"
	"hawq/internal/types"
)

// BindParams binds every expr.Param placeholder in the plan to its
// positional argument value, casting each value to the kind the planner
// inferred at prepare time. It is called on the statement's own clone
// (cached plans stay pristine) before dispatch; the gang executes that
// clone, bound values included.
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
	untyped := slices.Contains(p.ParamKinds, types.KindNull)
	var bindErr error
	p.Walk(func(n Node) {
		for _, e := range NodeExprs(n) {
			if e == nil {
				continue
			}
			if err := expr.BindParams(e, cast); err != nil && bindErr == nil {
				bindErr = err
			}
			// A placeholder whose kind nothing fixed at prepare time
			// arrives as whatever the client sent: it must still be
			// something its comparison can order. The others were cast
			// to the kind the binder checked.
			if untyped {
				expr.Walk(e, func(x expr.Expr) {
					if err := expr.CheckComparison(x); err != nil && bindErr == nil {
						bindErr = fmt.Errorf("plan: %w", err)
					}
				})
			}
		}
	})
	if bindErr != nil {
		return bindErr
	}
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
