package executor

import (
	"hawq/internal/expr"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/types"
)

// hashJoinOp builds a hash table on the right input and probes with the
// left. NULL join keys never match (SQL semantics). The build side is
// consumed through drainRows, each row copied once into the keyTable
// with the hash of its keys; the probe side is taken row by row through
// a rowCursor, hashed, and looked up — hash first, then the typed key
// cells — and output rows are written straight into the caller's batch.
//
// When the build side outgrows its memory budget the join degrades to
// partitioned (grace) spilling: both sides are partitioned into
// workfiles by the level-salted key hash, then each partition pair is
// joined in memory, in the same table — recursing with a deeper salt on
// partitions that still don't fit, and past maxSpillLevel loading the
// partition anyway (a skewed key can defeat any partitioning).
type hashJoinOp struct {
	ctx         *Context
	node        *plan.HashJoin
	left, right Operator

	mem   memBudget
	table keyTable
	// cur serves the probe rows: the left input's, or in grace mode those
	// of the current partition's probe file. matches is the scratch list
	// of the build rows the current probe row pairs with.
	cur     *rowCursor
	matches []types.Row

	// spill state
	spilled bool
	buildSP *spillPartition // level-0 build partitions, filled while draining the build side
	probeSP *spillPartition // level-0 probe partitions, filled while draining the probe side
	parts   []joinPart      // partition pairs still to join
	curPart joinPart        // partition currently loaded (files removed when its probe is exhausted)

	probe joinProbe
}

// joinPart is one build/probe partition pair awaiting its in-memory
// join. level is the salt that created it; re-partitioning uses
// level+1 so the rows actually redistribute.
type joinPart struct {
	build, probe *resource.File
	level        int
}

func newHashJoinOp(ctx *Context, node *plan.HashJoin) (Operator, error) {
	l, err := Build(ctx, node.Left)
	if err != nil {
		return nil, err
	}
	r, err := Build(ctx, node.Right)
	if err != nil {
		return nil, err
	}
	j := &hashJoinOp{ctx: ctx, node: node, left: l, right: r}
	j.mem = memBudget{ctx: ctx}
	j.probe = newJoinProbe(node.Kind, node.ExtraPred, node.Right.OutSchema().Len())
	return j, nil
}

// setOpStats implements statsSink: the join charges its build-table
// peak and grace-partition spill traffic to this slot.
func (j *hashJoinOp) setOpStats(st *obs.OpStats) {
	j.mem.st = st
}

// Open implements Operator: drains the build side, spilling both sides
// into partition workfiles if the build outgrows its budget.
func (j *hashJoinOp) Open() error {
	if err := j.right.Open(); err != nil {
		return err
	}
	err := drainRows(j.ctx, j.right, func(row types.Row) error {
		h, valid := hashKeys(row, j.node.RightKeys)
		if !valid {
			// Build rows with NULL or NaN keys can never match and no join kind
			// here emits unmatched build rows.
			return nil
		}
		if !j.spilled {
			// The row is charged before it is copied: the soft cap diverts
			// it, and the table, to the partitions instead.
			over, err := j.mem.grow(rowMem(row))
			if err != nil {
				return err
			}
			if !over {
				return j.table.add(h, row)
			}
			if err := j.spillBuild(); err != nil {
				return err
			}
		}
		return j.buildSP.addHash(h, row)
	})
	if err != nil {
		return err
	}
	if err := j.right.Close(); err != nil {
		return err
	}
	if err := j.left.Open(); err != nil {
		return err
	}
	if !j.spilled {
		j.table.seal()
		j.cur = opCursor(j.ctx, j.left)
		return nil
	}
	// Grace phase: the probe side streams straight into its own
	// partition files — no memory growth — and each partition pair is
	// then joined in memory as probeNext walks them.
	if err := j.buildSP.finish(); err != nil {
		return err
	}
	j.probeSP, err = newSpillPartition(j.ctx, 0, j.mem.st)
	if err != nil {
		return err
	}
	if err := drainRows(j.ctx, j.left, j.probeRouter(j.probeSP)); err != nil {
		return err
	}
	if err := j.probeSP.finish(); err != nil {
		return err
	}
	for i := 0; i < spillFanout; i++ {
		j.parts = append(j.parts, joinPart{build: j.buildSP.files[i], probe: j.probeSP.files[i], level: 0})
	}
	j.buildSP, j.probeSP = nil, nil
	return nil
}

// probeRouter returns the function that writes a probe row to its
// partition in sp. A row with a NULL or NaN key joins nothing: an inner
// or semi join drops it here, a left or anti join must still emit it and
// routes it by its hash all the same.
func (j *hashJoinOp) probeRouter(sp *spillPartition) func(types.Row) error {
	return func(row types.Row) error {
		h, valid := hashKeys(row, j.node.LeftKeys)
		if !valid && (j.node.Kind == plan.InnerJoin || j.node.Kind == plan.SemiJoin) {
			return nil
		}
		return sp.addHash(h, row)
	}
}

// spillBuild switches the join into grace mode: the in-memory table is
// flushed into level-0 partition files, in the order it was built, and
// its reservation released; the rest of the build side streams straight
// to the partitions.
func (j *hashJoinOp) spillBuild() error {
	sp, err := newSpillPartition(j.ctx, 0, j.mem.st)
	if err != nil {
		return err
	}
	for i, h := range j.table.hashes {
		if err := sp.addHash(h, j.table.rows.row(i)); err != nil {
			sp.remove()
			return err
		}
	}
	j.buildSP = sp
	j.table.reset()
	j.mem.releaseAll()
	j.spilled = true
	return nil
}

// probeNext returns the next probe row: streamed from the left input
// in the in-memory case, or read from the current partition's probe
// file in grace mode — loading (or recursively re-partitioning) the
// next partition pair as each one is exhausted.
func (j *hashJoinOp) probeNext() (types.Row, bool, error) {
	for {
		if j.cur != nil {
			row, ok, err := j.cur.next()
			if err != nil || ok || !j.spilled {
				return row, ok, err
			}
			j.cur.close()
			j.cur = nil
			j.curPart.build.Remove()
			j.curPart.probe.Remove()
			j.curPart = joinPart{}
			j.table.reset()
			j.mem.releaseAll()
		}
		if len(j.parts) == 0 {
			return nil, false, nil
		}
		part := j.parts[0]
		j.parts = j.parts[1:]
		// Track the in-flight pair so Close removes its files even if
		// the load is canceled halfway.
		j.curPart = part
		loaded, err := j.loadPart(part)
		if err != nil {
			return nil, false, err
		}
		if !loaded {
			j.curPart = joinPart{} // re-partitioned deeper; files already removed
		}
	}
}

// loadPart builds the in-memory table for one partition pair. It
// reports false (no error) when the partition didn't fit and was
// re-partitioned at the next level instead.
func (j *hashJoinOp) loadPart(part joinPart) (bool, error) {
	noSpill := part.level >= maxSpillLevel
	cur, err := openCursor(j.ctx, part.build)
	if err != nil {
		return false, err
	}
	defer cur.close()
	for {
		row, ok, err := cur.next()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		h, valid := hashKeys(row, j.node.RightKeys)
		if !valid {
			continue
		}
		if noSpill {
			if err := j.mem.growHard(rowMem(row)); err != nil {
				return false, err
			}
		} else {
			over, err := j.mem.grow(rowMem(row))
			if err != nil {
				return false, err
			}
			if over {
				cur.close() // repartition reads the file again, then removes it
				j.table.reset()
				j.mem.releaseAll()
				return false, j.repartition(part)
			}
		}
		if err := j.table.add(h, row); err != nil {
			return false, err
		}
	}
	j.table.seal()
	j.cur, err = openCursor(j.ctx, part.probe)
	return err == nil, err
}

// repartition splits an oversized partition pair into spillFanout
// deeper pairs with a level+1 salted hash and queues them.
func (j *hashJoinOp) repartition(part joinPart) error {
	level := part.level + 1
	bsp, err := newSpillPartition(j.ctx, level, j.mem.st)
	if err != nil {
		return err
	}
	psp, err := newSpillPartition(j.ctx, level, j.mem.st)
	if err != nil {
		bsp.remove()
		return err
	}
	err = j.reroute(part.build, func(row types.Row) error {
		h, _ := hashKeys(row, j.node.RightKeys) // a build row in a file has its keys
		return bsp.addHash(h, row)
	})
	if err == nil {
		err = j.reroute(part.probe, j.probeRouter(psp))
	}
	if err == nil {
		err = bsp.finish()
	}
	if err == nil {
		err = psp.finish()
	}
	if err != nil {
		bsp.remove()
		psp.remove()
		return err
	}
	part.build.Remove()
	part.probe.Remove()
	for i := 0; i < spillFanout; i++ {
		j.parts = append(j.parts, joinPart{build: bsp.files[i], probe: psp.files[i], level: level})
	}
	return nil
}

// reroute streams one partition file through route, which writes each
// row into a deeper partition set.
func (j *hashJoinOp) reroute(f *resource.File, route func(types.Row) error) error {
	cur, err := openCursor(j.ctx, f)
	if err != nil {
		return err
	}
	defer cur.close()
	for {
		row, ok, err := cur.next()
		if err != nil || !ok {
			return err
		}
		if err := route(row); err != nil {
			return err
		}
	}
}

// NextBatch implements Operator: probe rows are looked up one at a time
// and their output appended to b until it holds a full batch; a probe
// row with more matches than fit resumes on the next call.
func (j *hashJoinOp) NextBatch(b *types.Batch) (bool, error) {
	b.Reset(0)
	for b.Len() < types.DefaultBatchRows {
		if j.probe.cur == nil {
			row, ok, err := j.probeNext()
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
			j.matches = j.matches[:0]
			if h, valid := hashKeys(row, j.node.LeftKeys); valid {
				j.matches = j.table.lookup(h, row, j.node.LeftKeys, j.node.RightKeys, j.matches)
			}
			j.probe.start(row, j.matches)
		}
		if err := j.probe.emit(b); err != nil {
			return false, err
		}
	}
	return b.Len() > 0, nil
}

// Close implements Operator: beyond the inputs, it tears down any
// remaining spill state — a canceled grace join removes its partition
// files here rather than waiting for the store-wide cleanup.
func (j *hashJoinOp) Close() error {
	j.cur.close()
	j.cur = nil
	if j.curPart.build != nil {
		j.curPart.build.Remove()
		j.curPart.probe.Remove()
		j.curPart = joinPart{}
	}
	for _, p := range j.parts {
		p.build.Remove()
		p.probe.Remove()
	}
	j.parts = nil
	j.buildSP.remove()
	j.probeSP.remove()
	j.buildSP, j.probeSP = nil, nil
	j.table.reset()
	j.mem.releaseAll()
	err := j.left.Close()
	if cerr := j.right.Close(); err == nil {
		err = cerr
	}
	return err
}

// joinProbe is the probe-side state both joins share: the current probe
// row, the build rows it may pair with, and how far emission got. The
// probe row is a view into its cursor's batch and the candidates are
// views into the build side's row store, so neither moves while output is
// appended to the caller's batch.
type joinProbe struct {
	kind  plan.JoinKind
	pred  expr.Expr // evaluated over probe‖build; nil passes every pair
	nulls types.Row // the build side of an unmatched left-outer row
	pair  types.Row // scratch probe‖build row for pred

	cur     types.Row // nil: the next probe row is due
	cands   []types.Row
	idx     int
	matched bool
}

func newJoinProbe(kind plan.JoinKind, pred expr.Expr, rightWidth int) joinProbe {
	return joinProbe{kind: kind, pred: pred, nulls: make(types.Row, rightWidth)}
}

// start makes row the current probe row with cands as the build rows to
// pair it with.
func (p *joinProbe) start(row types.Row, cands []types.Row) {
	p.cur, p.cands, p.idx, p.matched = row, cands, 0, false
}

// passes evaluates the join predicate over one probe‖build pair.
func (p *joinProbe) passes(build types.Row) (bool, error) {
	if p.pred == nil {
		return true, nil
	}
	p.pair = append(append(p.pair[:0], p.cur...), build...)
	return expr.EvalBool(p.pred, p.pair)
}

// emit appends the current probe row's output to b. It returns with the
// probe row still current when b filled up before its candidates ran
// out; otherwise the row is finished and cur is nil.
func (p *joinProbe) emit(b *types.Batch) error {
	pairs := p.kind == plan.InnerJoin || p.kind == plan.LeftJoin
	for p.idx < len(p.cands) {
		if b.Len() >= types.DefaultBatchRows {
			return nil
		}
		build := p.cands[p.idx]
		p.idx++
		ok, err := p.passes(build)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		p.matched = true
		if !pairs {
			break // semi/anti: the first surviving pair decides
		}
		b.AppendConcat(p.cur, build)
	}
	switch {
	case p.kind == plan.LeftJoin && !p.matched:
		b.AppendConcat(p.cur, p.nulls)
	case p.kind == plan.SemiJoin && p.matched, p.kind == plan.AntiJoin && !p.matched:
		b.AppendRow(p.cur)
	}
	p.cur = nil
	return nil
}

// nestLoopOp materializes the right input and evaluates an arbitrary
// predicate against each pair (non-equi joins over a broadcast input).
type nestLoopOp struct {
	ctx     *Context
	node    *plan.NestLoopJoin
	left    Operator
	right   Operator
	leftCur *rowCursor

	mem   memBudget
	store rowStore    // the inner side's rows
	inner []types.Row // views into store, the candidates of every outer row
	probe joinProbe
}

func newNestLoopOp(ctx *Context, node *plan.NestLoopJoin) (Operator, error) {
	l, err := Build(ctx, node.Left)
	if err != nil {
		return nil, err
	}
	r, err := Build(ctx, node.Right)
	if err != nil {
		return nil, err
	}
	n := &nestLoopOp{ctx: ctx, node: node, left: l, right: r}
	n.mem = memBudget{ctx: ctx}
	n.leftCur = opCursor(ctx, l)
	n.probe = newJoinProbe(node.Kind, node.Pred, node.Right.OutSchema().Len())
	return n, nil
}

// setOpStats implements statsSink: the nested-loop join charges its
// buffered inner-side peak to this slot.
func (n *nestLoopOp) setOpStats(st *obs.OpStats) {
	n.mem.st = st
}

// Open implements Operator.
func (n *nestLoopOp) Open() error {
	if err := n.right.Open(); err != nil {
		return err
	}
	err := drainRows(n.ctx, n.right, func(row types.Row) error {
		// Nest-loop inners are small broadcast inputs by construction;
		// there is no spill path, so only the hard grant applies.
		if err := n.mem.growHard(rowMem(row)); err != nil {
			return err
		}
		n.inner = append(n.inner, n.store.add(row))
		return nil
	})
	if err != nil {
		return err
	}
	if err := n.right.Close(); err != nil {
		return err
	}
	return n.left.Open()
}

// NextBatch implements Operator.
func (n *nestLoopOp) NextBatch(b *types.Batch) (bool, error) {
	b.Reset(0)
	for b.Len() < types.DefaultBatchRows {
		if n.probe.cur == nil {
			// Each left row restarts the inner scan; with a selective
			// predicate the loop can run far past one output row, so
			// observe cancellation per outer row.
			if err := n.ctx.canceled(); err != nil {
				return false, err
			}
			row, ok, err := n.leftCur.next()
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
			n.probe.start(row, n.inner)
		}
		if err := n.probe.emit(b); err != nil {
			return false, err
		}
	}
	return b.Len() > 0, nil
}

// Close implements Operator.
func (n *nestLoopOp) Close() error {
	n.leftCur.close()
	n.inner = nil
	n.store.reset()
	n.mem.releaseAll()
	err := n.left.Close()
	if cerr := n.right.Close(); err == nil {
		err = cerr
	}
	return err
}
