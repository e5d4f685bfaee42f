package plan

// Clone returns a copy of the plan's header — the Plan and each Slice —
// sharing every node: a planned tree is never written (an operator
// binds what varies by execution as it is built, executor.Build), so one
// cached plan serves any number of executions at once, each binding its
// arguments, pinning its deferred slices and stamping its resources in a
// header of its own.
func (p *Plan) Clone() (*Plan, error) {
	cp := *p
	headers := make([]Slice, len(p.Slices))
	cp.Slices = make([]*Slice, len(p.Slices))
	for i, s := range p.Slices {
		headers[i] = *s
		cp.Slices[i] = &headers[i]
	}
	return &cp, nil
}
