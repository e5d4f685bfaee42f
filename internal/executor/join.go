package executor

import (
	"slices"
	"sync"

	"hawq/internal/expr"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/types"
)

// hashJoinOp builds a hash table on the right input and probes with the
// left. NULL join keys never match (SQL semantics). The build side is
// consumed through drainRows, each row copied once into the keyTable
// with the hash of its keys. Output rows are written straight into the
// caller's batch.
//
// A probe input that is a VecSource (a scan) is probed without being
// materialized: each vector batch's key columns are hashed from their
// typed entries (vecKeyHash), every surviving row's chain is walked once,
// its key cells are read out only when a build row has its hash, and the
// whole row only when joinProbe is to emit it — so a selective join over
// a scan builds a row for what it outputs, not for what it reads (a
// block most of whose rows are emitted is materialized whole, which is
// cheaper). Any other probe input is taken row by row through a
// rowCursor and hashed with hashKeys; both meet the build rows in the
// same slots.
//
// When the build side outgrows its memory budget the join degrades to
// partitioned (grace) spilling: both sides are partitioned into
// workfiles by the level-salted key hash, then each partition pair is
// joined in memory, in the same table — recursing with a deeper salt on
// partitions that still don't fit, and past maxSpillLevel loading the
// partition anyway (a skewed key can defeat any partitioning). A grace
// join takes every probe input as rows, a scan included.
type hashJoinOp struct {
	ctx         *Context
	node        *plan.HashJoin
	left, right Operator

	mem   memBudget
	table keyTable
	// cur serves the probe rows of a row input or, in grace mode, those
	// of the current partition's probe file; vin is the probe input when
	// it is a vector source and the build fit in memory, and vec its
	// current batch. matches is the scratch list of the build rows the
	// current probe row pairs with.
	cur     *rowCursor
	vin     VecSource
	vec     *vecProbe
	matches []types.Row

	// spill state
	spilled bool
	buildSP *spillPartition // level-0 build partitions, filled while draining the build side
	probeSP *spillPartition // level-0 probe partitions, filled while draining the probe side
	parts   []joinPart      // partition pairs still to join
	curPart joinPart        // partition currently loaded (files removed when its probe is exhausted)

	probe joinProbe
}

// vecProbe is one vector batch of the probe side as the join reads it:
// the key hash of every surviving row and which rows have a NULL key,
// each key column's vector and the entry of every surviving row in it,
// and the next row to probe. A key's cells and a whole row are read out
// on demand. Its scratch, sized to a block, is pooled across joins.
type vecProbe struct {
	vb     *types.VecBatch // nil between batches
	n      int             // surviving rows
	next   int             // the next of them to probe
	hashes []uint64
	nulls  types.NullBitmap // bit i: row i has a NULL key
	firsts []int32          // by row: the table's first row of its hash (keyTable.first), 0 for none
	// rows holds the batch's rows, materialized at once (dense) when a
	// quarter of them or more are to be read out (see match): a column at
	// a time costs less than reading each of them out through rr.
	rows  *types.Batch
	dense bool

	cols    []vecKeyCol
	entHash []uint64  // scratch: the hash of each entry of a column of runs or codes
	key     types.Row // the key cells of the row being probed, in key order
	keyCols []int     // 0, 1, …: where key holds each key column
	rr      types.RowReader
	rrSet   bool // rr points at vb
}

// vecKeyCol is one key column of a vecProbe's batch: its vector, and the
// entry of every surviving row (nil when row i is entry i) in buf's
// storage or the batch's.
type vecKeyCol struct {
	v         *types.Vector
	ents, buf []int32
}

// vecProbes recycles the vector probes of finished joins.
var vecProbes = sync.Pool{New: func() any { return new(vecProbe) }}

// getVecProbe returns a pooled vector probe for a key of nkeys columns.
func getVecProbe(nkeys int) *vecProbe {
	p := vecProbes.Get().(*vecProbe)
	if len(p.cols) != nkeys {
		p.cols = make([]vecKeyCol, nkeys)
		p.key = make(types.Row, nkeys)
		p.keyCols = p.keyCols[:0]
		for k := range nkeys {
			p.keyCols = append(p.keyCols, k)
		}
	}
	return p
}

// put releases the probe's batch and returns the probe to the pool.
func (p *vecProbe) put() {
	p.release()
	types.PutBatch(p.rows)
	p.rows = nil
	vecProbes.Put(p)
}

// load makes vb the current batch, ownership included, and hashes the
// key columns cols of its surviving rows.
func (p *vecProbe) load(vb *types.VecBatch, cols []int) {
	p.vb, p.n, p.next, p.rrSet = vb, vb.SelCount(), 0, false
	p.hashes = slices.Grow(p.hashes[:0], p.n)[:p.n]
	clear(p.hashes)
	p.nulls = p.nulls[:0]
	for k, c := range cols {
		kc := &p.cols[k]
		kc.v = &vb.Cols[c]
		kc.ents, kc.buf = kc.v.EntryIndex(vb.Sel, kc.buf)
		p.entHash = foldVecKeys(kc.v, kc.ents, p.hashes, &p.nulls, p.entHash)
	}
}

// keyOf returns the key cells of surviving row i: the probe key
// sameKey compares, in the vecProbe's scratch.
func (p *vecProbe) keyOf(i int) types.Row {
	for k := range p.cols {
		kc := &p.cols[k]
		e := i
		if kc.ents != nil {
			e = int(kc.ents[i])
		}
		p.key[k] = kc.v.Datum(e)
	}
	return p.key
}

// row returns surviving row i, every column: valid until the next call.
func (p *vecProbe) row(i int) types.Row {
	if p.dense {
		return p.rows.Row(i)
	}
	if !p.rrSet {
		p.rr.Reset(p.vb, nil)
		p.rrSet = true
	}
	return p.rr.Row(i)
}

// release hands the batch back to the pool. The rows read from it do not
// refer to it: their strings are the vectors' immutable ones.
func (p *vecProbe) release() {
	types.PutVecBatch(p.vb)
	p.vb, p.n, p.next, p.dense = nil, 0, 0, false
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
			// Build rows with NULL keys can never match and no join kind
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
		if j.vin, _ = j.left.(VecSource); j.vin != nil {
			j.vec = getVecProbe(len(j.node.LeftKeys))
		} else {
			j.cur = opCursor(j.ctx, j.left)
		}
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
// partition in sp. A row with a NULL key joins nothing: an inner or semi
// join drops it here, a left or anti join must still emit it and routes
// it by its hash all the same.
func (j *hashJoinOp) probeRouter(sp *spillPartition) func(types.Row) error {
	return func(row types.Row) error {
		h, valid := hashKeys(row, j.node.LeftKeys)
		if !valid && !j.emitsUnmatched() {
			return nil
		}
		return sp.addHash(h, row)
	}
}

// emitsUnmatched reports whether a probe row that pairs with nothing has
// output: the left join's NULL-extended row, the anti join's row.
func (j *hashJoinOp) emitsUnmatched() bool {
	return j.node.Kind == plan.LeftJoin || j.node.Kind == plan.AntiJoin
}

// pullVec replaces the vector probe's batch with the next one of the
// probe input. It reports false at the input's end.
func (j *hashJoinOp) pullVec() (bool, error) {
	j.vec.release()
	if err := j.ctx.canceled(); err != nil {
		return false, err
	}
	vb, err := j.vin.NextVecBatch()
	if err != nil || vb == nil {
		types.PutVecBatch(vb)
		return false, err
	}
	j.vec.load(vb, j.node.LeftKeys)
	return true, nil
}

// match finds the first candidate of every row of the vector probe's
// batch in one loop, and materializes the batch when at least a quarter
// of its rows are to be read out: the rows with a candidate for an inner
// or semi join, those without for an anti join (all of them under a join
// predicate), every row for a left join. A quarter is where reading the
// block out whole starts to win on BenchmarkHashJoin/scanprobe's integer
// rows: at a tenth of them reading row by row is the faster, at a sixth
// the two tie.
func (j *hashJoinOp) match() {
	p := j.vec
	p.firsts = slices.Grow(p.firsts[:0], p.n)[:p.n]
	cands := 0
	for i, h := range p.hashes {
		l := int32(0)
		if !p.nulls.At(i) {
			l = j.table.first(h)
		}
		p.firsts[i] = l
		if l != 0 {
			cands++
		}
	}
	read := cands
	switch {
	case j.node.Kind == plan.LeftJoin, j.node.Kind == plan.AntiJoin && j.node.ExtraPred != nil:
		read = p.n
	case j.node.Kind == plan.AntiJoin:
		read = p.n - cands
	}
	if p.dense = 4*read >= p.n; p.dense {
		if p.rows == nil {
			p.rows = types.GetBatch(0)
		}
		p.vb.Materialize(p.rows)
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
			var ok bool
			var err error
			if j.vin != nil {
				ok, err = j.nextVecProbe()
			} else {
				ok, err = j.nextRowProbe()
			}
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
		}
		if err := j.probe.emit(b); err != nil {
			return false, err
		}
	}
	return b.Len() > 0, nil
}

// nextRowProbe starts joinProbe on the next probe row of a row input or
// partition file. It reports false when there is none.
func (j *hashJoinOp) nextRowProbe() (bool, error) {
	row, ok, err := j.probeNext()
	if !ok {
		return false, err
	}
	j.matches = j.matches[:0]
	if h, valid := hashKeys(row, j.node.LeftKeys); valid {
		j.matches = j.table.lookup(j.table.first(h), h, row, j.node.LeftKeys, j.node.RightKeys, j.matches)
	}
	j.probe.start(row, j.matches)
	return true, nil
}

// nextVecProbe starts joinProbe on the next probe row of the vector input
// that has output, reading that row and no other: an inner or semi
// join's unmatched rows, and an anti join's matched ones when no join
// predicate can disqualify the matches, are passed over unread. It
// reports false at the input's end.
func (j *hashJoinOp) nextVecProbe() (bool, error) {
	p := j.vec
	for {
		for p.next < p.n {
			i := p.next
			p.next++
			j.matches = j.matches[:0]
			if l := p.firsts[i]; l != 0 {
				j.matches = j.table.lookup(l, p.hashes[i], p.keyOf(i), p.keyCols, j.node.RightKeys, j.matches)
			}
			if len(j.matches) == 0 && !j.emitsUnmatched() ||
				len(j.matches) > 0 && j.node.Kind == plan.AntiJoin && j.node.ExtraPred == nil {
				continue
			}
			j.probe.start(p.row(i), j.matches)
			return true, nil
		}
		if ok, err := j.pullVec(); !ok {
			return false, err
		}
		j.match()
	}
}

// Close implements Operator: beyond the inputs, it tears down any
// remaining spill state — a canceled grace join removes its partition
// files here rather than waiting for the store-wide cleanup.
func (j *hashJoinOp) Close() error {
	j.cur.close()
	j.cur = nil
	if j.vec != nil {
		j.vec.put()
		j.vec = nil
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
// probe row is a view into its cursor's batch or a vector reader's
// scratch, and the candidates are views into the build side's row store,
// so neither moves while output is appended to the caller's batch.
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
