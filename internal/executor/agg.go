package executor

import (
	"bytes"
	"fmt"
	"sort"

	"hawq/internal/expr"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/types"
)

// hashAggOp groups input rows by the group expressions and folds each
// aggregate. It serves all three phases (§3's two-phase aggregation):
// the planner arranges the specs so that a partial phase's outputs line
// up with the final phase's inputs. A group is a dense id, and its key
// the grouping values' types.AppendKey bytes — which equal values share
// whatever their width or scale, so 2.5 and 2.50 are one group, output
// as the first of them seen. The map from key to id is consulted without
// allocating, only a new group pays for a key copy, and each aggregate
// keeps the state of every group in one expr.GroupAcc.
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
	groups   map[string]int32
	keys     []types.Row     // by group id
	accs     []expr.GroupAcc // by aggregate
	order    []string
	emitted  int
	inClosed bool

	// spill state
	sp      *spillPartition // open partition set unseen keys divert to
	pending []aggPart       // partitions waiting to be aggregated
	level   int             // salt the current pass spills with
	noSpill bool            // past maxSpillLevel: absorb in memory regardless

	keyScratch types.Row
	keyBuf     []byte

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
	// and how many values that is (vals and valEnds hold them while
	// they are counted); the memo of groups by combination of those
	// numbers; the previous row's key; and the reader that rebuilds a
	// whole row for the spill file.
	gids    []int32
	gvecs   []*types.Vector
	gents   [][]int32
	entBufs [][]int32
	vids    [][]int32
	cards   []int
	vals    []byte
	valEnds []int
	memo    []int32
	prevKey []byte
	rr      types.RowReader
}

// aggPart is one spilled partition of not-yet-aggregated input rows.
// level is the salt its pass will spill with if it overflows again.
type aggPart struct {
	file  *resource.File
	level int
}

// aggGroupMem estimates the retained bytes of one new group: cloned
// key row, map key string, accumulators, and map-entry overhead.
func aggGroupMem(keys types.Row, keyLen, naccs int) int64 {
	return rowMem(keys) + int64(keyLen) + int64(48*naccs) + 96
}

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
	if vs, ok := in.(VecSource); ok && vs.EnableVec() {
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
	a.groups = make(map[string]int32)
	a.keys = a.keys[:0]
	a.order = a.order[:0]
	a.emitted = 0
	a.accs = a.accs[:0]
	for _, spec := range a.node.Aggs {
		a.accs = append(a.accs, expr.NewGroupAcc(spec))
	}
}

// lookup returns the group whose key is a.keyBuf, or -1.
func (a *hashAggOp) lookup() int32 {
	if g, ok := a.groups[string(a.keyBuf)]; ok {
		return g
	}
	return -1
}

// addGroup creates the group whose key is a.keyBuf and whose key
// values are keys (copied). It returns -1 instead when the table may
// not grow — spilling has begun, or begins with this group — and the
// row that asked must be diverted to a.sp.
func (a *hashAggOp) addGroup(keys types.Row) (int32, error) {
	if a.sp != nil {
		return -1, nil
	}
	cost := aggGroupMem(keys, len(a.keyBuf), len(a.node.Aggs))
	if a.noSpill {
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
	return a.newGroup(keys), nil
}

// newGroup enters a group into the table, unaccounted.
func (a *hashAggOp) newGroup(keys types.Row) int32 {
	g := int32(len(a.keys))
	kept := keys.Clone()
	for i := range kept {
		kept[i] = kept[i].Detach()
	}
	a.keys = append(a.keys, kept)
	for _, acc := range a.accs {
		acc.Grow(len(a.keys))
	}
	key := string(a.keyBuf)
	a.groups[key] = g
	a.order = append(a.order, key)
	return g
}

// absorb folds one input row into its group, creating the group on first
// sight — or, once spilling has begun, diverting rows for unseen keys to
// their partition file. row may be an arena view; only datum values are
// retained.
func (a *hashAggOp) absorb(row types.Row) error {
	if cap(a.keyScratch) < len(a.node.Groups) {
		a.keyScratch = make(types.Row, len(a.node.Groups))
	}
	keys := a.keyScratch[:len(a.node.Groups)]
	a.keyBuf = a.keyBuf[:0]
	for i, g := range a.node.Groups {
		v, err := g.Eval(row)
		if err != nil {
			return err
		}
		keys[i] = v
		a.keyBuf = types.AppendKey(a.keyBuf, v)
	}
	g := a.lookup()
	if g < 0 {
		var err error
		if g, err = a.addGroup(keys); err != nil {
			return err
		}
		if g < 0 {
			return a.sp.addBytes(a.keyBuf, row)
		}
	}
	for i, spec := range a.node.Aggs {
		if spec.Kind == expr.AggCountStar {
			a.accs[i].Add(g, types.Datum{K: types.KindInt64, I: 1})
			continue
		}
		v, err := spec.Arg.Eval(row)
		if err != nil {
			return err
		}
		a.accs[i].Add(g, v)
	}
	return nil
}

// absorbVec folds one vector batch a column at a time: the group
// expressions and aggregate arguments are evaluated as vectors over the
// surviving rows, every row's group is resolved, and each aggregate
// takes its argument vector and the group ids in one call. No row is
// assembled unless it goes to a spill file.
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
		if !diverted {
			acc.AddVec(gids, v)
			continue
		}
		// Some rows of this batch went to the spill file: the others
		// are folded one by one.
		for r, g := range gids {
			if g < 0 {
				continue
			}
			d := types.NewInt64(1)
			if v != nil {
				d = v.Datum(r)
			}
			acc.Add(g, d)
		}
	}
	return nil
}

// valueIDs numbers the entries of group column j, a vector of runs or
// codes, by distinct value into a.vids[j], and returns how many values
// there are — or 0 as soon as there are more than limit, or none at all.
// The keys of the values seen are kept back to back and searched in
// order: there are a handful, or the search gives up.
func (a *hashAggOp) valueIDs(j int, v *types.Vector, limit int) int {
	ids, vals, ends := a.vids[j][:0], a.vals[:0], a.valEnds[:0]
	for e, n := 0, v.Entries(); e < n; e++ {
		a.keyBuf = v.AppendKey(a.keyBuf[:0], e)
		id, from := 0, 0
		for id < len(ends) && !bytes.Equal(vals[from:ends[id]], a.keyBuf) {
			id, from = id+1, ends[id]
		}
		if id == len(ends) {
			if id == limit {
				return 0
			}
			vals = append(vals, a.keyBuf...)
			ends = append(ends, len(vals))
		}
		ids = append(ids, int32(id))
	}
	a.vids[j], a.vals, a.valEnds = ids, vals, ends
	return len(ends)
}

// groupIDs resolves the group of every surviving row of vb into gids,
// creating groups on first sight; a row diverted to the spill partition
// gets -1, and diverted reports whether any was. A group column that
// arrives dictionary- or run-length-encoded is looked at once per entry,
// not per row: its entries are numbered by distinct value, and when
// every group expression is such a column the group of each combination
// of values is looked up once per batch and remembered. Otherwise the
// key is built per row straight from the typed vectors, and looked up
// unless it repeats the previous row's.
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
	if len(a.node.Groups) > 0 {
		for range combos {
			memo = append(memo, -1)
		}
		a.memo = memo
	}
	if cap(a.keyScratch) < len(a.node.Groups) {
		a.keyScratch = make(types.Row, len(a.node.Groups))
	}
	keys := a.keyScratch[:len(a.node.Groups)]
	entry := func(j, r int) int {
		if a.gents[j] != nil {
			return int(a.gents[j][r])
		}
		return r
	}
	prev := int32(-1)
	for r := range gids {
		combo := 0
		if len(memo) > 0 {
			for j := range a.gvecs {
				combo = combo*a.cards[j] + int(a.vids[j][entry(j, r)])
			}
			if g := memo[combo]; g >= 0 {
				gids[r] = g
				continue
			}
		}
		a.keyBuf = a.keyBuf[:0]
		for j, v := range a.gvecs {
			a.keyBuf = v.AppendKey(a.keyBuf, entry(j, r))
		}
		if prev >= 0 && bytes.Equal(a.keyBuf, a.prevKey) {
			gids[r] = prev
			continue
		}
		g := a.lookup()
		if g < 0 {
			for j, v := range a.gvecs {
				keys[j] = v.Datum(entry(j, r))
			}
			if g, err = a.addGroup(keys); err != nil {
				return false, err
			}
		}
		if g < 0 {
			// Never remembered: later rows of this key must divert too.
			if !diverted {
				diverted = true
				a.rr.Reset(vb, nil)
			}
			if err := a.sp.addBytes(a.keyBuf, a.rr.Row(r)); err != nil {
				return false, err
			}
		} else if len(memo) > 0 {
			memo[combo] = g
		}
		gids[r], prev = g, g
		a.prevKey = append(a.prevKey[:0], a.keyBuf...)
	}
	return diverted, nil
}

// sealSpill completes the current pass's spill partition (if any) and
// queues its files for the next level.
func (a *hashAggOp) sealSpill() error {
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

// Open implements Operator: consumes the whole input.
func (a *hashAggOp) Open() error {
	if err := a.in.Open(); err != nil {
		return err
	}
	a.newTable()
	a.level = 0
	a.noSpill = false
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
	if err := a.sealSpill(); err != nil {
		return err
	}
	// A scalar aggregate (no GROUP BY) over empty input yields one row of
	// empty-input results in every phase: each segment's partial row
	// carries count 0, so the final SUM over partial counts is 0 rather
	// than NULL.
	if len(a.node.Groups) == 0 && len(a.groups) == 0 && len(a.pending) == 0 {
		a.keyBuf = a.keyBuf[:0]
		a.newGroup(nil)
	}
	// Deterministic output order helps tests; production order is
	// arbitrary anyway. (A spilled agg is only sorted within each
	// partition's pass — real queries order with an explicit Sort.)
	sort.Strings(a.order)
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
	a.noSpill = part.level > maxSpillLevel
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
	if err := a.sealSpill(); err != nil {
		return err
	}
	sort.Strings(a.order)
	return nil
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
		g := a.groups[a.order[a.emitted]]
		a.emitted++
		out := b.AddRow()
		n := copy(out, a.keys[g])
		for i, acc := range a.accs {
			out[n+i] = acc.Result(g)
		}
	}
	return b.Len() > 0, nil
}

// Close implements Operator: removes any partitions a cancel or error
// left unprocessed and returns the memory reservation.
func (a *hashAggOp) Close() error {
	a.groups = nil
	a.keys = nil
	a.accs = nil
	a.order = nil
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
