package executor

import (
	"hawq/internal/clock"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/types"
)

// StatsRecorder collects per-operator runtime statistics for one slice
// on one node. The dispatcher creates one per (slice, segment) when the
// plan asks for stats (EXPLAIN ANALYZE, slow-query log); Build then
// wraps every operator in a decorator that charges rows, batches and
// wall time to the operator's OpStats slot, and the spilling/motion
// operators additionally record spill and interconnect traffic through
// the statsSink hook. Node identity is the preorder index of the plan
// node within the slice tree — identical on the QD and on every QE
// (and across the plan's wire form), so merged stats line up without
// negotiation.
type StatsRecorder struct {
	slice   int
	segment int
	clk     clock.Clock
	byNode  map[plan.Node]*obs.OpStats
	order   []*obs.OpStats
}

// NewStatsRecorder numbers the slice tree under root in preorder and
// allocates one OpStats slot per node. clk supplies operator wall time
// (nil = wall clock; clock.Sim keeps durations at zero for
// deterministic output).
func NewStatsRecorder(clk clock.Clock, root plan.Node, slice, segment int) *StatsRecorder {
	r := &StatsRecorder{
		slice:   slice,
		segment: segment,
		clk:     clock.Default(clk),
		byNode:  map[plan.Node]*obs.OpStats{},
	}
	var number func(n plan.Node)
	number = func(n plan.Node) {
		st := &obs.OpStats{
			Slice: slice, Node: len(r.order), Label: n.Label(), Segment: segment,
		}
		r.byNode[n] = st
		r.order = append(r.order, st)
		for _, c := range n.Children() {
			number(c)
		}
	}
	number(root)
	return r
}

// Stats returns the recorded statistics by value — the per-slice bundle
// the dispatcher piggybacks onto the query result. Call only after the
// slice has finished (the decorators are single-goroutine).
func (r *StatsRecorder) Stats() obs.SliceStats {
	ss := obs.SliceStats{Slice: r.slice, Segment: r.segment, Ops: make([]obs.OpStats, len(r.order))}
	for i, st := range r.order {
		ss.Ops[i] = *st
	}
	return ss
}

// statsSink is implemented by operators that attribute extra traffic —
// spill bytes/files, motion payload bytes, peak memory — to their own
// OpStats slot. Build injects the slot right after construction, before
// Open can run.
type statsSink interface {
	setOpStats(*obs.OpStats)
}

// wrap decorates a freshly built operator with stats recording. Nodes
// the recorder has not numbered (synthetic nodes an operator constructor
// invented) pass through unwrapped.
func (r *StatsRecorder) wrap(n plan.Node, op Operator) Operator {
	st, ok := r.byNode[n]
	if !ok {
		return op
	}
	if sink, ok := op.(statsSink); ok {
		sink.setOpStats(st)
	}
	d := &statsOp{in: op, st: st, clk: r.clk}
	if vs, ok := op.(VecSource); ok {
		return &statsVecOp{statsOp: d, vs: vs}
	}
	return d
}

// statsOp decorates an operator: rows and batches emitted, and inclusive
// wall time (children included, Postgres-style — the child's decorator
// runs inside this one's clock window). Accounting is amortized: two
// clock reads and two adds per batch (~1k rows), so EXPLAIN ANALYZE
// stays within the instrumentation-overhead budget.
type statsOp struct {
	in  Operator
	st  *obs.OpStats
	clk clock.Clock
}

// Open implements Operator.
func (o *statsOp) Open() error {
	start := o.clk.Now()
	err := o.in.Open()
	o.st.Wall += o.clk.Since(start)
	return err
}

// NextBatch implements Operator.
func (o *statsOp) NextBatch(b *types.Batch) (bool, error) {
	start := o.clk.Now()
	ok, err := o.in.NextBatch(b)
	o.st.Wall += o.clk.Since(start)
	if ok && err == nil {
		o.st.Batches++
		o.st.Rows += int64(b.Len())
	}
	return ok, err
}

// Close implements Operator.
func (o *statsOp) Close() error {
	start := o.clk.Now()
	err := o.in.Close()
	o.st.Wall += o.clk.Since(start)
	return err
}

// statsVecOp decorates an operator that is a VecSource, and is one.
type statsVecOp struct {
	*statsOp
	vs VecSource
}

// NextVecBatch implements VecSource, charging the vector batch's
// selected rows to the same slot the row path would.
func (o *statsVecOp) NextVecBatch() (*types.VecBatch, error) {
	start := o.clk.Now()
	vb, err := o.vs.NextVecBatch()
	o.st.Wall += o.clk.Since(start)
	if vb != nil && err == nil {
		o.st.Batches++
		o.st.Rows += int64(vb.SelCount())
	}
	return vb, err
}
