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
// consumed through drainRows (cloning retained rows out of the arena),
// the probe side row-wise through a batchCursor, and output rows are
// written straight into the caller's batch.
//
// When the build side outgrows its memory budget the join degrades to
// partitioned (grace) spilling: both sides are partitioned into
// workfiles by a level-salted key hash, then each partition pair is
// joined in memory — recursing with a deeper salt on partitions that
// still don't fit, and past maxSpillLevel loading the partition anyway
// (a skewed key can defeat any partitioning).
type hashJoinOp struct {
	ctx         *Context
	node        *plan.HashJoin
	left, right Operator
	leftCur     batchCursor

	mem   memBudget
	table map[string]*buildBucket
	// keyBuf is the reusable join-key encoding buffer: every key
	// computation on the hot path encodes into it and looks up the table
	// via the non-allocating map[string(keyBuf)] form; only inserting a
	// previously unseen build key materializes a string.
	keyBuf []byte

	// blooms are the runtime filters this build side is filling, one per
	// plan.RuntimeFilterSpec, published to ctx.Filters when the build
	// completes (nil when the context has no hub or the plan no specs).
	blooms []*Bloom
	rtfBuf []byte

	// spill state
	spilled  bool
	buildSP  *spillPartition // level-0 build partitions, filled while draining the build side
	probeSP  *spillPartition // level-0 probe partitions, filled while draining the probe side
	parts    []joinPart      // partition pairs still to join
	curPart  joinPart        // partition currently loaded (files removed when its probe is exhausted)
	probeCur *wfCursor       // probe rows of the current partition

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
	j.leftCur = batchCursor{ctx: ctx, src: l}
	j.probe = newJoinProbe(node.Kind, node.ExtraPred, node.Right.OutSchema().Len())
	return j, nil
}

// setOpStats implements statsSink: the join charges its build-table
// peak and grace-partition spill traffic to this slot.
func (j *hashJoinOp) setOpStats(st *obs.OpStats) {
	j.mem.st = st
}

// buildBucket holds the build rows sharing one join key. The pointer
// indirection lets probes and repeated inserts go through the
// non-allocating map[string(buf)] lookup — only the first insert of a
// key converts the scratch buffer to a string.
type buildBucket struct {
	rows []types.Row
}

// appendJoinKey encodes the key columns into buf (reused across rows);
// the bool reports whether any key was NULL (which never joins).
func appendJoinKey(buf []byte, row types.Row, cols []int) ([]byte, bool) {
	buf = buf[:0]
	for _, c := range cols {
		if row[c].IsNull() {
			return buf[:0], false
		}
		// Normalize numerics so INT32 7 joins INT64 7 across tables.
		buf = types.EncodeDatum(buf, normalizeKey(row[c]))
	}
	return buf, true
}

func normalizeKey(d types.Datum) types.Datum {
	switch d.K {
	case types.KindInt32:
		return types.NewInt64(d.I)
	case types.KindDecimal:
		if d.Scale == 0 {
			return types.NewInt64(d.I)
		}
	}
	return d
}

// Open implements Operator: drains the build side, spilling both sides
// into partition workfiles if the build outgrows its budget.
func (j *hashJoinOp) Open() error {
	if err := j.right.Open(); err != nil {
		return err
	}
	if j.ctx != nil && j.ctx.Filters != nil && len(j.node.RuntimeFilters) > 0 {
		j.blooms = make([]*Bloom, len(j.node.RuntimeFilters))
		for i := range j.blooms {
			j.blooms[i] = &Bloom{}
		}
	}
	j.table = make(map[string]*buildBucket)
	err := drainRows(j.ctx, j.right, func(row types.Row) error {
		var valid bool
		j.keyBuf, valid = appendJoinKey(j.keyBuf, row, j.node.RightKeys)
		if !valid {
			// Build rows with NULL keys can never match and no join kind
			// here emits unmatched build rows.
			return nil
		}
		// Fill the runtime filters before any spill diversion: the bloom
		// must cover every build row regardless of where it lands.
		for si, spec := range j.node.RuntimeFilters {
			if j.blooms == nil {
				break
			}
			var h uint64
			j.rtfBuf, h = rtfHash(j.rtfBuf, row[spec.BuildKey])
			j.blooms[si].Add(h)
		}
		if j.spilled {
			return j.buildSP.addBytes(j.keyBuf, row)
		}
		over, err := j.mem.grow(rowMem(row) + int64(len(j.keyBuf)))
		if err != nil {
			return err
		}
		if over {
			if err := j.spillBuild(); err != nil {
				return err
			}
			return j.buildSP.addBytes(j.keyBuf, row)
		}
		bkt := j.table[string(j.keyBuf)]
		if bkt == nil {
			bkt = &buildBucket{}
			j.table[string(j.keyBuf)] = bkt
		}
		bkt.rows = append(bkt.rows, row.Clone())
		return nil
	})
	if err != nil {
		return err
	}
	if err := j.right.Close(); err != nil {
		return err
	}
	// Publish the completed runtime filters before the probe side opens:
	// same-slice probe scans then see them from their very first page,
	// while cross-slice scans pick them up as soon as every gang member's
	// build finishes (best-effort, never blocking).
	if j.blooms != nil {
		for si, spec := range j.node.RuntimeFilters {
			if err := j.ctx.Filters.Publish(spec.ID, j.blooms[si]); err != nil {
				return err
			}
		}
		j.blooms = nil
	}
	if err := j.left.Open(); err != nil {
		return err
	}
	if !j.spilled {
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
	err = drainRows(j.ctx, j.left, func(row types.Row) error {
		var valid bool
		j.keyBuf, valid = appendJoinKey(j.keyBuf, row, j.node.LeftKeys)
		if !valid {
			switch j.node.Kind {
			case plan.InnerJoin, plan.SemiJoin:
				return nil // can't match, can't be emitted
			}
			// Left/Anti must still see the row to emit it: empty key.
		}
		return j.probeSP.addBytes(j.keyBuf, row)
	})
	if err != nil {
		return err
	}
	if err := j.probeSP.finish(); err != nil {
		return err
	}
	for i := 0; i < spillFanout; i++ {
		j.parts = append(j.parts, joinPart{build: j.buildSP.files[i], probe: j.probeSP.files[i], level: 0})
	}
	j.buildSP, j.probeSP = nil, nil
	j.table = nil
	return nil
}

// spillBuild switches the join into grace mode: the in-memory table is
// flushed into level-0 partition files and its reservation released;
// the rest of the build side streams straight to the partitions.
func (j *hashJoinOp) spillBuild() error {
	sp, err := newSpillPartition(j.ctx, 0, j.mem.st)
	if err != nil {
		return err
	}
	for key, bkt := range j.table {
		for _, r := range bkt.rows {
			if err := sp.add(key, r); err != nil {
				sp.remove()
				return err
			}
		}
	}
	j.buildSP = sp
	j.table = nil
	j.mem.releaseAll()
	j.spilled = true
	return nil
}

// probeNext returns the next probe row: streamed from the left input
// in the in-memory case, or read from the current partition's probe
// file in grace mode — loading (or recursively re-partitioning) the
// next partition pair as each one is exhausted.
func (j *hashJoinOp) probeNext() (types.Row, bool, error) {
	if !j.spilled {
		return j.leftCur.next()
	}
	for {
		if j.probeCur != nil {
			row, ok, err := j.probeCur.next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return row, true, nil
			}
			j.probeCur.close()
			j.probeCur = nil
			j.curPart.build.Remove()
			j.curPart.probe.Remove()
			j.curPart = joinPart{}
			j.table = nil
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
			continue
		}
	}
}

// loadPart builds the in-memory table for one partition pair. It
// reports false (no error) when the partition didn't fit and was
// re-partitioned at the next level instead.
func (j *hashJoinOp) loadPart(part joinPart) (bool, error) {
	noSpill := part.level >= maxSpillLevel
	table := make(map[string]*buildBucket)
	cur, err := openCursor(part.build)
	if err != nil {
		return false, err
	}
	for {
		if err := j.ctx.canceled(); err != nil {
			cur.close()
			return false, err
		}
		row, ok, rerr := cur.next()
		if rerr != nil {
			cur.close()
			return false, rerr
		}
		if !ok {
			break
		}
		var valid bool
		j.keyBuf, valid = appendJoinKey(j.keyBuf, row, j.node.RightKeys)
		if !valid {
			continue
		}
		cost := rowMem(row) + int64(len(j.keyBuf))
		if noSpill {
			if err := j.mem.growHard(cost); err != nil {
				cur.close()
				return false, err
			}
		} else {
			over, gerr := j.mem.grow(cost)
			if gerr != nil {
				cur.close()
				return false, gerr
			}
			if over {
				cur.close()
				j.mem.releaseAll()
				return false, j.repartition(part)
			}
		}
		bkt := table[string(j.keyBuf)]
		if bkt == nil {
			bkt = &buildBucket{}
			table[string(j.keyBuf)] = bkt
		}
		bkt.rows = append(bkt.rows, row.Clone())
	}
	cur.close()
	j.table = table
	j.probeCur, err = openCursor(part.probe)
	if err != nil {
		return false, err
	}
	return true, nil
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
	if err := j.reroute(part.build, j.node.RightKeys, bsp, false); err == nil {
		err = j.reroute(part.probe, j.node.LeftKeys, psp, true)
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

// reroute streams one partition file into a deeper partition set.
// keepInvalid retains NULL-key rows (probe side of outer joins) under
// the empty key.
func (j *hashJoinOp) reroute(f *resource.File, keys []int, sp *spillPartition, keepInvalid bool) error {
	cur, err := openCursor(f)
	if err != nil {
		return err
	}
	defer cur.close()
	for {
		if err := j.ctx.canceled(); err != nil {
			return err
		}
		row, ok, err := cur.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		var valid bool
		j.keyBuf, valid = appendJoinKey(j.keyBuf, row, keys)
		if !valid && !keepInvalid {
			continue
		}
		if err := sp.addBytes(j.keyBuf, row); err != nil {
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
			var valid bool
			j.keyBuf, valid = appendJoinKey(j.keyBuf, row, j.node.LeftKeys)
			var matches []types.Row
			if valid {
				if bkt := j.table[string(j.keyBuf)]; bkt != nil {
					matches = bkt.rows
				}
			}
			j.probe.start(row, matches)
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
	j.leftCur.release()
	if j.probeCur != nil {
		j.probeCur.close()
		j.probeCur = nil
	}
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
	j.mem.releaseAll()
	err := j.left.Close()
	if cerr := j.right.Close(); err == nil {
		err = cerr
	}
	j.table = nil
	return err
}

// joinProbe is the probe-side state both joins share: the current probe
// row, the build rows it may pair with, and how far emission got. The
// probe row is a view into its cursor's batch and the candidates are
// build-side clones, so neither moves while output is appended to the
// caller's batch.
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
	leftCur batchCursor

	mem   memBudget
	inner []types.Row
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
	n.leftCur = batchCursor{ctx: ctx, src: l}
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
		n.inner = append(n.inner, row.Clone())
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
	n.leftCur.release()
	n.mem.releaseAll()
	err := n.left.Close()
	if cerr := n.right.Close(); err == nil {
		err = cerr
	}
	n.inner = nil
	return err
}
