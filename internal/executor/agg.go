package executor

import (
	"fmt"
	"slices"
	"sync"

	"hawq/internal/expr"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/types"
)

// hashAggOp groups input rows by the group expressions and folds each
// aggregate. It serves all three phases (§3's two-phase aggregation):
// the planner arranges the specs so that a partial phase's outputs line
// up with the final phase's inputs. The groups are the rows of a
// keyTable, their keys told apart as the join's are — 2.5 and 2.50 are
// one group, output as the first of them seen, and so are two NULLs and
// two NaNs — and a group's number there is the dense id under which each
// aggregate keeps its state in one expr.GroupAcc. A DISTINCT aggregate is
// fed a group's value once: the (group id, value) pairs it has met are a
// keyTable of their own.
//
// When the group table outgrows its memory budget the agg spills
// hybrid-style: groups already in memory keep absorbing their rows,
// while rows for unseen keys are partitioned into workfiles by a
// level-salted key hash and aggregated partition-by-partition after
// the in-memory groups are emitted — recursing on partitions that
// still don't fit, and past maxSpillLevel absorbing in memory anyway.
type hashAggOp struct {
	ctx  *Context
	node *plan.HashAgg
	in   Operator

	mem      memBudget
	table    keyTable        // the groups: a row is a group's key, its number the group's id
	keyCols  []int           // every column of table
	accs     []expr.GroupAcc // by aggregate
	seen     []keyTable      // by aggregate: the (group id, value) pairs a DISTINCT one has met
	order    []int32         // the pass's group ids as they are emitted
	orderTmp []int32         // radixOrder's scratch
	emitted  int
	inClosed bool

	// spill state
	sp      *spillPartition // open partition set unseen keys divert to
	pending []aggPart       // partitions waiting to be aggregated
	level   int             // salt the current pass spills with

	keyScratch types.Row

	// vecIn is set when the input delivers vector batches: Open then
	// absorbs through absorbVec, a column at a time. prog computes the
	// group expressions that are not plain columns, then the aggregate
	// arguments; groupAt and argAt say where each is among its results
	// (-1: a plain group column, read from the batch; COUNT(*), which
	// has no argument).
	vecIn   VecSource
	prog    *expr.VecProg
	groupAt []int
	argAt   []int
	// Per-batch scratch: the group of every surviving row; the group
	// columns, the entry of every surviving row in each and, for a
	// column of runs or codes, its entries numbered by distinct value
	// and how many values that is (vals holds them while they are
	// counted); the memo of groups by combination of those numbers, or
	// else every row's key hash (types.FoldVecKeys' scratch beside it);
	// and the reader that rebuilds a whole row for the spill file.
	gids    []int32
	gvecs   []*types.Vector
	gents   [][]int32
	entBufs [][]int32
	vids    [][]int32
	cards   []int
	vals    []types.Datum
	memo    []int32
	hashes  []uint64
	entHash []uint64
	rr      types.RowReader
}

// aggPart is one spilled partition of not-yet-aggregated input rows.
// level is the salt its pass will spill with if it overflows again.
type aggPart struct {
	file  *resource.File
	level int
}

// aggGroupMem estimates the retained bytes of one new group: its key row
// in the table and its accumulators.
func aggGroupMem(keys types.Row, naccs int) int64 {
	return rowMem(keys) + int64(48*naccs)
}

// seenCols are the columns of a DISTINCT aggregate's table: the group id
// and the value.
var seenCols = []int{0, 1}

// absorbVec remembers, within a batch, the group of each combination of
// distinct group-column values while there are at most memoLimit
// combinations of at most memoValues values a column: low-cardinality
// keys, Q1's three flags and two statuses, not a product gone wild. The
// second bound is also what numbering a column's entries may cost
// before it gives up.
const (
	memoLimit  = 256
	memoValues = 16
)

func newHashAggOp(ctx *Context, node *plan.HashAgg) (Operator, error) {
	in, err := Build(ctx, node.Input)
	if err != nil {
		return nil, err
	}
	a := &hashAggOp{ctx: ctx, node: node, in: in, mem: memBudget{ctx: ctx}}
	a.keyCols = make([]int, len(node.Groups))
	for i := range a.keyCols {
		a.keyCols[i] = i
	}
	a.keyScratch = make(types.Row, len(node.Groups))
	a.seen = make([]keyTable, len(node.Aggs))
	if vs, ok := in.(VecSource); ok {
		a.vecIn = vs
		var exprs []expr.Expr
		at := func(e expr.Expr) int {
			exprs = append(exprs, e)
			return len(exprs) - 1
		}
		for _, g := range node.Groups {
			if _, plain := g.(*expr.ColRef); plain {
				a.groupAt = append(a.groupAt, -1)
			} else {
				a.groupAt = append(a.groupAt, at(g))
			}
		}
		for _, spec := range node.Aggs {
			if spec.Kind == expr.AggCountStar {
				a.argAt = append(a.argAt, -1)
			} else {
				a.argAt = append(a.argAt, at(spec.Arg))
			}
		}
		a.prog = expr.CompileVec(exprs)
		a.gvecs = make([]*types.Vector, len(node.Groups))
		a.gents = make([][]int32, len(node.Groups))
		a.entBufs = make([][]int32, len(node.Groups))
		a.vids = make([][]int32, len(node.Groups))
		a.cards = make([]int, len(node.Groups))
	}
	return a, nil
}

// setOpStats implements statsSink: the aggregate charges its table peak
// and partition spill traffic to this slot.
func (a *hashAggOp) setOpStats(st *obs.OpStats) {
	a.mem.st = st
}

// newTable starts an empty group table.
func (a *hashAggOp) newTable() {
	a.table.reset()
	clear(a.seen)
	a.order = a.order[:0]
	a.emitted = 0
	a.accs = a.accs[:0]
	for _, spec := range a.node.Aggs {
		a.accs = append(a.accs, expr.NewGroupAcc(spec))
	}
}

// newGroup creates the group of key keys, hashing to h, that a lookup
// missed, or returns -1 when the table may not grow — spilling has begun,
// or begins with this group — and the row must be diverted to a.sp.
func (a *hashAggOp) newGroup(h uint64, keys types.Row) (int32, error) {
	if a.sp != nil {
		return -1, nil
	}
	cost := aggGroupMem(keys, len(a.node.Aggs))
	if a.level > maxSpillLevel { // absorb in memory regardless
		if err := a.mem.growHard(cost); err != nil {
			return -1, err
		}
	} else {
		over, err := a.mem.grow(cost)
		if err != nil {
			return -1, err
		}
		if over {
			a.sp, err = newSpillPartition(a.ctx, a.level, a.mem.st)
			return -1, err
		}
	}
	return a.table.insert(h, keys)
}

// growAccs makes room in every accumulator for every group.
func (a *hashAggOp) growAccs() {
	for _, acc := range a.accs {
		acc.Grow(a.table.len())
	}
}

// fold adds d to aggregate i of group g — to a DISTINCT aggregate only
// the first time the group meets the value, and never a NULL. A value of
// a group in memory has no partition to be diverted to, so the set of
// values met grows against the hard grant.
func (a *hashAggOp) fold(i int, g int32, d types.Datum) error {
	if a.node.Aggs[i].Distinct {
		if d.IsNull() {
			return nil
		}
		key := [2]types.Datum{types.NewInt64(int64(g)), d}
		if novel, err := a.seen[i].admit(&a.mem, key[:], seenCols); err != nil || !novel {
			return err
		}
	}
	a.accs[i].Add(g, d)
	return nil
}

// absorb folds one input row into its group, creating the group on first
// sight — or, once spilling has begun, diverting rows for unseen keys to
// their partition file. row may be an arena view; only datum values are
// retained.
func (a *hashAggOp) absorb(row types.Row) error {
	keys := a.keyScratch
	for i, g := range a.node.Groups {
		v, err := g.Eval(row)
		if err != nil {
			return err
		}
		keys[i] = v
	}
	var err error
	h, _ := types.HashKeys(keys, a.keyCols)
	g := a.table.find(h, keys, a.keyCols)
	if g < 0 {
		if g, err = a.newGroup(h, keys); err != nil {
			return err
		}
		if g < 0 {
			return a.sp.addHash(h, row)
		}
		a.growAccs()
	}
	for i, spec := range a.node.Aggs {
		v := types.NewInt64(1)
		if spec.Kind != expr.AggCountStar {
			if v, err = spec.Arg.Eval(row); err != nil {
				return err
			}
		}
		if err := a.fold(i, g, v); err != nil {
			return err
		}
	}
	return nil
}

// absorbVec folds one vector batch a column at a time: the group
// expressions and aggregate arguments are evaluated as vectors over the
// surviving rows, every row's group is resolved, and each aggregate
// takes its argument vector and the group ids in one call — one that is
// not DISTINCT. No row is assembled unless it goes to a spill file.
func (a *hashAggOp) absorbVec(vb *types.VecBatch) error {
	m := vb.SelCount()
	if m == 0 {
		return nil
	}
	if err := a.prog.Eval(vb); err != nil {
		return err
	}
	if cap(a.gids) < m {
		a.gids = make([]int32, m)
	}
	gids := a.gids[:m]
	diverted, err := a.groupIDs(vb, gids)
	if err != nil {
		return err
	}
	for i, acc := range a.accs {
		var v *types.Vector
		if a.argAt[i] >= 0 {
			v = a.prog.Result(a.argAt[i])
		}
		if !diverted && !a.node.Aggs[i].Distinct {
			acc.AddVec(gids, v)
			continue
		}
		// A DISTINCT aggregate, or some rows of this batch went to the
		// spill file: the others are folded one by one.
		for r, g := range gids {
			if g < 0 {
				continue
			}
			d := types.NewInt64(1)
			if v != nil {
				d = v.Datum(r)
			}
			if err := a.fold(i, g, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// valueIDs numbers the entries of group column j, a vector of runs or
// codes, by distinct value into a.vids[j], and returns how many values
// there are — or 0 as soon as there are more than limit, or none at all.
// The values seen are kept in a list and searched in order: there are a
// handful, or the search gives up.
func (a *hashAggOp) valueIDs(j int, v *types.Vector, limit int) int {
	ids, vals := a.vids[j][:0], a.vals[:0]
	for e, n := 0, v.Entries(); e < n; e++ {
		d := v.Datum(e)
		id := 0
		for id < len(vals) && !keyEqual(&vals[id], &d) {
			id++
		}
		if id == len(vals) {
			if id == limit {
				return 0
			}
			vals = append(vals, d)
		}
		ids = append(ids, int32(id))
	}
	a.vids[j], a.vals = ids, vals
	return len(vals)
}

// groupIDs resolves the group of every surviving row of vb into gids,
// creating groups on first sight; a row diverted to the spill partition
// gets -1, and diverted reports whether any was. A group column that
// arrives dictionary- or run-length-encoded is looked at once per entry,
// not per row: its entries are numbered by distinct value, and when
// every group expression is such a column — or there is none: a scalar
// aggregate's one group — the group of each combination of values is
// looked up once per batch and remembered. Otherwise the key columns are
// hashed a column at a time, as a join's probe hashes them, and each row
// walks its hash's chain comparing the stored key cells with its vector
// entries: a key row is built only for a group that is new.
func (a *hashAggOp) groupIDs(vb *types.VecBatch, gids []int32) (diverted bool, err error) {
	combos := 1
	for j, g := range a.node.Groups {
		if a.groupAt[j] >= 0 {
			a.gvecs[j], a.gents[j] = a.prog.Result(a.groupAt[j]), nil
			combos = 0
			continue
		}
		col := g.(*expr.ColRef).Idx
		if col >= len(vb.Cols) {
			return false, fmt.Errorf("executor: group column %d out of range (batch width %d)", col, len(vb.Cols))
		}
		v := &vb.Cols[col]
		a.gvecs[j] = v
		a.gents[j], a.entBufs[j] = v.EntryIndex(vb.Sel, a.entBufs[j])
		if v.Enc == types.VecFlat {
			combos = 0
		} else if combos > 0 {
			a.cards[j] = a.valueIDs(j, v, min(memoValues, memoLimit/combos))
			combos *= a.cards[j]
		}
	}
	memo := a.memo[:0]
	for range combos {
		memo = append(memo, -1)
	}
	a.memo = memo
	if len(memo) == 0 {
		a.hashes = slices.Grow(a.hashes[:0], len(gids))[:len(gids)]
		clear(a.hashes)
		for j, v := range a.gvecs {
			a.entHash = types.FoldVecKeys(v, a.gents[j], a.hashes, nil, a.entHash)
		}
	}
	for r := range gids {
		combo, h := 0, uint64(0)
		if len(memo) > 0 {
			for j := range a.gvecs {
				combo = combo*a.cards[j] + int(a.vids[j][a.entry(j, r)])
			}
			if g := memo[combo]; g >= 0 {
				gids[r] = g
				continue
			}
			for j, v := range a.gvecs {
				kh, _ := types.VecKeyWord(v, a.entry(j, r))
				h = types.FoldKey(h, kh)
			}
		} else {
			h = a.hashes[r]
		}
		g := a.findVec(h, r)
		if g < 0 {
			for j, v := range a.gvecs {
				a.keyScratch[j] = v.Datum(a.entry(j, r))
			}
			if g, err = a.newGroup(h, a.keyScratch); err != nil {
				return false, err
			}
		}
		if g < 0 {
			// Never remembered: later rows of this key must divert too.
			if !diverted {
				diverted = true
				a.rr.Reset(vb, nil)
			}
			if err := a.sp.addHash(h, a.rr.Row(r)); err != nil {
				return false, err
			}
		} else if len(memo) > 0 {
			memo[combo] = g
		}
		gids[r] = g
	}
	a.growAccs()
	return diverted, nil
}

// entry returns the entry of surviving row r in group column j.
func (a *hashAggOp) entry(j, r int) int {
	if a.gents[j] != nil {
		return int(a.gents[j][r])
	}
	return r
}

// findVec returns the group whose stored key cells equal surviving row
// r's entries in a.gvecs, hashing to h, or -1.
func (a *hashAggOp) findVec(h uint64, r int) int32 {
next:
	for l := a.table.first(h); l != 0; l = a.table.next[l-1] {
		if a.table.hashes[l-1] != h {
			continue
		}
		key := a.table.rows.row(int(l - 1))
		for j, v := range a.gvecs {
			if !vecKeyEqual(&key[j], v, a.entry(j, r)) {
				continue next
			}
		}
		return l - 1
	}
	return -1
}

// vecKeyEqual is keyEqual(d, &x) for x := v.Datum(e), read from the
// vector's typed fields where d has the vector's kind.
func vecKeyEqual(d *types.Datum, v *types.Vector, e int) bool {
	switch v.Class() {
	case types.ClassInt:
		if d.K == v.Kind && d.Scale == v.Scale && !v.Nulls.At(e) {
			return d.I == v.Ints[e]
		}
	case types.ClassStr:
		if (d.K == types.KindString || d.K == types.KindBytes) && !v.Nulls.At(e) {
			return d.S == v.Text(e)
		}
	}
	x := v.Datum(e)
	return keyEqual(d, &x)
}

// endPass completes the current pass: its groups are put in the order
// they are emitted in — by key hash, a function of the key's value alone,
// so the same run after run whatever order the rows arrived in (two keys
// of one hash, if that ever happens, stay as they arrived), though a
// spilled aggregate's only pass by pass — and its spill partition (if
// any) is finished and queued for the next level.
func (a *hashAggOp) endPass() error {
	a.order, a.orderTmp = radixOrder(a.table.hashes, a.order, a.orderTmp)
	if a.sp == nil {
		return nil
	}
	if err := a.sp.finish(); err != nil {
		return err
	}
	for _, f := range a.sp.files {
		a.pending = append(a.pending, aggPart{file: f, level: a.level + 1})
	}
	a.sp = nil
	return nil
}

// radixCounts recycles radixOrder's counts, too big for a goroutine's first stack.
var radixCounts = sync.Pool{New: func() any { return new([8][256]int32) }}

// radixOrder returns 0 … len(hashes)-1 ordered by hashes[i], ties in
// ascending number, in order's or tmp's storage (the other is returned for
// the next call's tmp): a stable radix sort a byte at a time from the
// lowest, skipping the scatter of a byte every hash shares.
func radixOrder(hashes []uint64, order, tmp []int32) (sorted, scratch []int32) {
	n := len(hashes)
	order = slices.Grow(order[:0], n)[:n]
	for i := range order {
		order[i] = int32(i)
	}
	if n < 2 {
		return order, tmp
	}
	tmp = slices.Grow(tmp[:0], n)[:n]
	counts := radixCounts.Get().(*[8][256]int32)
	defer radixCounts.Put(counts)
	*counts = [8][256]int32{}
	for _, h := range hashes {
		for d := range counts {
			counts[d][byte(h>>(8*d))]++
		}
	}
	for d := range counts {
		c, shift := &counts[d], 8*d
		if c[byte(hashes[0]>>shift)] == int32(n) {
			continue
		}
		at := int32(0)
		for b, k := range c {
			c[b] = at
			at += k
		}
		for _, g := range order {
			b := byte(hashes[g] >> shift)
			tmp[c[b]] = g
			c[b]++
		}
		order, tmp = tmp, order
	}
	return order, tmp
}

// Open implements Operator: consumes the whole input.
func (a *hashAggOp) Open() error {
	if err := a.in.Open(); err != nil {
		return err
	}
	a.newTable()
	a.level = 0
	if a.vecIn != nil {
		for {
			if err := a.ctx.canceled(); err != nil {
				return err
			}
			vb, err := a.vecIn.NextVecBatch()
			if err != nil {
				return err
			}
			if vb == nil {
				break
			}
			err = a.absorbVec(vb)
			types.PutVecBatch(vb)
			if err != nil {
				return err
			}
		}
	} else if err := drainRows(a.ctx, a.in, a.absorb); err != nil {
		return err
	}
	// A scalar aggregate (no GROUP BY) over empty input yields one row of
	// empty-input results in every phase: each segment's partial row
	// carries count 0, so the final SUM over partial counts is 0 rather
	// than NULL.
	if len(a.node.Groups) == 0 && a.table.len() == 0 && a.sp == nil {
		if _, err := a.table.insert(0, nil); err != nil {
			return err
		}
		a.growAccs()
	}
	if err := a.endPass(); err != nil {
		return err
	}
	a.inClosed = true
	return a.in.Close()
}

// loadPart aggregates the next pending partition into a fresh group
// table, re-spilling at the next level if it overflows again.
func (a *hashAggOp) loadPart() error {
	part := a.pending[0]
	a.pending = a.pending[1:]
	a.mem.releaseAll()
	a.newTable()
	a.level = part.level
	cur, err := openCursor(a.ctx, part.file)
	if err != nil {
		return err
	}
	defer cur.close()
	for {
		row, ok, err := cur.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := a.absorb(row); err != nil {
			return err
		}
	}
	cur.close() // the reader first, then the file it reads
	part.file.Remove()
	return a.endPass()
}

// NextBatch implements Operator: groups are appended to b as key columns
// then aggregate results, a spilled agg loading its next partition
// whenever the table in memory runs out.
func (a *hashAggOp) NextBatch(b *types.Batch) (bool, error) {
	b.Reset(len(a.node.Groups) + len(a.node.Aggs))
	for b.Len() < types.DefaultBatchRows {
		if a.emitted == len(a.order) {
			if len(a.pending) == 0 {
				break
			}
			if err := a.loadPart(); err != nil {
				return false, err
			}
			continue
		}
		g := a.order[a.emitted]
		a.emitted++
		out := b.AddRow()
		n := copy(out, a.table.rows.row(int(g)))
		for i, acc := range a.accs {
			out[n+i] = acc.Result(g)
		}
	}
	return b.Len() > 0, nil
}

// Close implements Operator: removes any partitions a cancel or error
// left unprocessed and returns the memory reservation.
func (a *hashAggOp) Close() error {
	a.table.reset()
	clear(a.seen)
	a.accs, a.order = nil, nil
	a.sp.remove()
	a.sp = nil
	for _, p := range a.pending {
		p.file.Remove()
	}
	a.pending = nil
	a.mem.releaseAll()
	if !a.inClosed {
		a.inClosed = true
		return a.in.Close()
	}
	return nil
}
