// Package executor implements HAWQ's pipelined query executor (§2.4, §3):
// pull-based operators that hand each other types.Batch arenas through
// one contract (Operator.NextBatch), motion operators bound to the
// interconnect, two-phase hash aggregation, hash and nested-loop joins,
// an external sort that spills to segment-local disk (§2.6), and the
// Insert operator that appends to HDFS segment files and piggybacks the
// resulting catalog changes back to the master (§3.1).
//
// A QE executes exactly one slice of a self-described plan; it consults
// no catalog — everything it needs is embedded in the plan.
package executor

import (
	"context"
	"errors"
	"fmt"

	"hawq/internal/catalog"
	"hawq/internal/clock"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/interconnect"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// SegFileUpdate is the piggybacked catalog change an Insert QE reports:
// the new physical state of the lane it wrote. The master turns these
// into MVCC catalog updates at statement end (§3.1, §5.4).
type SegFileUpdate struct {
	File catalog.SegFile
}

// ExternalEngine is the executor's binding to PXF (§6). The cluster
// injects the implementation; plans only carry the external table
// descriptor.
type ExternalEngine interface {
	// OpenExternal starts reading the fragments assigned to the given
	// segment. next returns the next row, already projected to scan.Proj
	// order and valid until the following call, or nil at the end. The
	// source holds nothing that has to be released.
	OpenExternal(scan *plan.ExternalScan, segment int) (next func() (types.Row, error), err error)
}

// Context is everything a slice execution needs on one node.
type Context struct {
	// Ctx is the per-query cancellation context (nil means
	// context.Background()): statement timeouts and client cancels
	// cancel it, and every operator checks it before each pull from its
	// input or from storage, so a sliced plan tears down within bounded
	// time and returns its pooled batches.
	Ctx context.Context
	// Query is the interconnect query ID (unique per dispatched
	// statement).
	Query uint64
	// Segment is the executing segment, or plan.QDSegment on the master.
	Segment int
	// FS is the HDFS client.
	FS *hdfs.FileSystem
	// Cache is the executing segment's block cache, through which table
	// scans read storage (nil — the QD, tests — reads uncached).
	Cache *storage.BlockCache
	// Net is this node's interconnect endpoint (nil for plans without
	// motions).
	Net interconnect.Node
	// External resolves external-table scans (nil when unused).
	External ExternalEngine
	// Plan is the dispatched plan. Its slice table places every motion
	// (a motion's senders are the gang of the slice it roots, its
	// receivers the gang of that slice's parent), and its WorkMem is the
	// per-operator soft budget in bytes (the work_mem session setting): a
	// hash join build, hash agg table or sort buffer that grows past it
	// switches to workfile spilling. nil (tests without motions) means a
	// WorkMem of 0, which disables the soft trigger.
	Plan *plan.Plan
	// Mem is this node's share of the query's memory grant (nil =
	// unlimited). Memory-hungry operators reserve their in-memory state
	// against it; exhausting it surfaces as a clean out-of-memory error
	// when spilling can't absorb the pressure.
	Mem *resource.Account
	// Work is the query's workfile store on this node, where every spill
	// lands. nil (tests) disables spilling.
	Work *resource.Store
	// OnSegFileUpdate receives piggybacked catalog changes from Insert.
	OnSegFileUpdate func(SegFileUpdate)
	// LocalHost is the DataNode collocated with this segment, used for
	// write locality.
	LocalHost string
	// Clock is the node's time source for operator wall-time statistics
	// and for current_date (nil = wall clock; the chaos harness and
	// golden tests inject clock.Sim so recorded durations and dates are
	// deterministic).
	Clock clock.Clock
	// Stats, when non-nil, makes Build wrap every operator of this slice
	// in a stats decorator (EXPLAIN ANALYZE, slow-query log). The
	// dispatcher creates one recorder per (slice, segment) and collects
	// it after the slice completes.
	Stats *StatsRecorder
}

// canceled reports the query's cancellation cause once Ctx is done, or
// nil while the query is live (or has no context at all). Operator
// loops call it once per iteration.
func (ctx *Context) canceled() error {
	if ctx == nil || ctx.Ctx == nil {
		return nil
	}
	select {
	case <-ctx.Ctx.Done():
		return context.Cause(ctx.Ctx)
	default:
		return nil
	}
}

// Operator is a pull-based batch iterator: the one contract every
// executor operator speaks.
type Operator interface {
	// Open prepares the operator (and its children).
	Open() error
	// NextBatch fills b with the next batch of rows, destroying b's
	// previous contents (and invalidating any row views into it).
	// ok=false signals end of stream; an operator may legitimately
	// return ok=true with an empty batch, so callers loop rather than
	// treat emptiness as EOS. Calls after end of stream keep returning
	// ok=false.
	NextBatch(b *types.Batch) (ok bool, err error)
	// Close releases resources. Closing before exhaustion propagates
	// cancellation (e.g. motion STOP) upstream.
	Close() error
}

// Build constructs the operator tree for a plan node. When the context
// carries a StatsRecorder, every operator (this node and, through the
// recursion, its children) is wrapped in a stats decorator; parents
// capture decorated children, so rows are counted at every plan edge.
//
// Build and the operators it returns only read the plan: every member of
// a gang executes the same *plan.Plan (see cluster.Dispatch), and a
// cached plan serves every execution of its statement. What varies by
// execution — the arguments in the plan's header, the node's clock — an
// operator binds into its own copy of an expression as it is built
// (bindNode).
func Build(ctx *Context, n plan.Node) (Operator, error) {
	op, err := buildNode(ctx, n)
	if err != nil || ctx.Stats == nil {
		return op, err
	}
	return ctx.Stats.wrap(n, op), nil
}

// buildNode constructs the undecorated operator for one plan node, its
// expressions bound (bindNode); children recurse through Build so they
// pick up decoration.
func buildNode(ctx *Context, n plan.Node) (Operator, error) {
	n, err := bindNode(ctx, n)
	if err != nil {
		return nil, err
	}
	switch v := n.(type) {
	case *plan.Scan:
		return newScanOp(ctx, v), nil
	case *plan.ExternalScan:
		return newExternalScanOp(ctx, v)
	case *plan.Select:
		in, err := Build(ctx, v.Input)
		if err != nil {
			return nil, err
		}
		return &selectOp{ctx: ctx, in: in, pred: v.Pred}, nil
	case *plan.Project:
		in, err := Build(ctx, v.Input)
		if err != nil {
			return nil, err
		}
		return newProjectOp(in, v.Exprs), nil
	case *plan.HashJoin:
		return newHashJoinOp(ctx, v)
	case *plan.NestLoopJoin:
		return newNestLoopOp(ctx, v)
	case *plan.HashAgg:
		return newHashAggOp(ctx, v)
	case *plan.Sort:
		in, err := Build(ctx, v.Input)
		if err != nil {
			return nil, err
		}
		return newSortOp(ctx, in, v.Keys), nil
	case *plan.Limit:
		in, err := Build(ctx, v.Input)
		if err != nil {
			return nil, err
		}
		return &limitOp{ctx: ctx, in: in, n: v.N, offset: v.Offset}, nil
	case *plan.Values:
		return &valuesOp{rows: v.Rows}, nil
	case *plan.Insert:
		return newInsertOp(ctx, v)
	case *plan.Motion:
		return newMotionSendOp(ctx, v)
	case *plan.MotionRecv:
		return newMotionRecvOp(ctx, v)
	default:
		return nil, fmt.Errorf("executor: no operator for %T", n)
	}
}

// bindNode returns n as this execution runs it: n itself when none of
// its expressions holds a placeholder or a clock builtin, otherwise a
// copy of n holding bound copies of them (expr.Bind) — the plan's
// arguments in place of its $n and the node's clock behind current_date.
// The plan itself is never written.
func bindNode(ctx *Context, n plan.Node) (plan.Node, error) {
	var args []types.Datum
	if ctx.Plan != nil {
		args = ctx.Plan.Args
	}
	var err error
	n = plan.MapExprs(n, func(e expr.Expr) expr.Expr {
		b, berr := expr.Bind(e, args, ctx.Clock)
		if err == nil {
			err = berr
		}
		return b
	})
	return n, err
}

// RunSlice executes slice sliceID of ctx.Plan to completion on this
// node, discarding output (every non-top slice's root is a Motion whose
// side effect is sending). The top slice is instead consumed through
// Build + Drain by the dispatcher.
func RunSlice(ctx *Context, sliceID int) error {
	op, err := Build(ctx, ctx.Plan.Slices[sliceID].Root)
	if err != nil {
		return err
	}
	// Tie this slice's interconnect streams to the query context on the
	// slice's own endpoint. The dispatcher cancels the nodes it knows,
	// but a failover can hand this QE a replacement endpoint created
	// after that sweep — only the slice itself is guaranteed to see the
	// node its streams actually live on.
	if ctx.Ctx != nil && ctx.Net != nil {
		stop := context.AfterFunc(ctx.Ctx, func() { ctx.Net.CancelQuery(ctx.Query) })
		defer stop()
	}
	return Drain(ctx, op, nil)
}

// Drain pulls every batch from an operator tree (used by the QD for the
// top slice) and invokes fn per row; a nil fn discards the rows. Rows
// passed to fn are views into a reused batch arena: they are valid only
// during the call, and fn must Clone any row it retains. A nil ctx (or a
// ctx without a cancellation context) drains to exhaustion; otherwise
// the pump stops with the cancellation cause as soon as the query
// context is done, so no partial result can ever be mistaken for a
// complete one.
func Drain(ctx *Context, op Operator, fn func(types.Row) error) error {
	if err := op.Open(); err != nil {
		return errors.Join(err, op.Close())
	}
	if err := drainRows(ctx, op, fn); err != nil {
		return errors.Join(err, op.Close())
	}
	return op.Close()
}
