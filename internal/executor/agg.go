package executor

import (
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
// up with the final phase's inputs. The encoded group key is rebuilt in
// a reused scratch buffer per input row, and the map lookup is
// non-allocating — only a new group pays for a key copy.
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
	groups   map[string]*aggGroup
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

	// vecIn is set when the input can deliver still-encoded vector
	// batches (compressed execution): Open then absorbs through
	// absorbVec, which evaluates group/agg expressions over per-column
	// iterators and reuses one run- or dictionary-level group lookup
	// where the encoding allows.
	vecIn      VecSource
	vecIters   []vecIter
	vecScratch types.Row
}

// aggPart is one spilled partition of not-yet-aggregated input rows.
// level is the salt its pass will spill with if it overflows again.
type aggPart struct {
	file  *resource.File
	level int
}

type aggGroup struct {
	keys types.Row
	accs []expr.Accumulator
}

// aggGroupMem estimates the retained bytes of one new group: cloned
// key row, map key string, accumulators, and map-entry overhead.
func aggGroupMem(keys types.Row, keyLen, naccs int) int64 {
	return rowMem(keys) + int64(keyLen) + int64(48*naccs) + 96
}

func newHashAggOp(ctx *Context, node *plan.HashAgg) (Operator, error) {
	in, err := Build(ctx, node.Input)
	if err != nil {
		return nil, err
	}
	a := &hashAggOp{ctx: ctx, node: node, in: in, mem: memBudget{ctx: ctx}}
	if vs, ok := in.(VecSource); ok && vs.EnableVec() {
		a.vecIn = vs
	}
	return a, nil
}

// setOpStats implements statsSink: the aggregate charges its table peak
// and partition spill traffic to this slot.
func (a *hashAggOp) setOpStats(st *obs.OpStats) {
	a.mem.st = st
}

// absorb folds one input row into its group, creating the group on first
// sight — or, once spilling has begun, diverting rows for unseen keys to
// their partition file. row may be an arena view; only datum values are
// retained.
func (a *hashAggOp) absorb(row types.Row) error {
	grp, err := a.lookupGroup(row)
	if err != nil || grp == nil {
		return err // diverted to spill (or failed)
	}
	return a.accumulate(grp, row)
}

// lookupGroup finds or creates the group for row, leaving the encoded
// group key in a.keyBuf. A nil group (and nil error) means the row was
// diverted to a spill partition and is fully handled.
func (a *hashAggOp) lookupGroup(row types.Row) (*aggGroup, error) {
	if cap(a.keyScratch) < len(a.node.Groups) {
		a.keyScratch = make(types.Row, len(a.node.Groups))
	}
	keys := a.keyScratch[:len(a.node.Groups)]
	a.keyBuf = a.keyBuf[:0]
	for i, g := range a.node.Groups {
		v, err := g.Eval(row)
		if err != nil {
			return nil, err
		}
		keys[i] = v
		a.keyBuf = types.EncodeDatum(a.keyBuf, v)
	}
	grp := a.groups[string(a.keyBuf)]
	if grp == nil {
		if a.sp != nil {
			return nil, a.sp.addBytes(a.keyBuf, row)
		}
		cost := aggGroupMem(keys, len(a.keyBuf), len(a.node.Aggs))
		if a.noSpill {
			if err := a.mem.growHard(cost); err != nil {
				return nil, err
			}
		} else {
			over, err := a.mem.grow(cost)
			if err != nil {
				return nil, err
			}
			if over {
				sp, err := newSpillPartition(a.ctx, a.level, a.mem.st)
				if err != nil {
					return nil, err
				}
				a.sp = sp
				return nil, a.sp.addBytes(a.keyBuf, row)
			}
		}
		grp = &aggGroup{keys: keys.Clone(), accs: make([]expr.Accumulator, len(a.node.Aggs))}
		for i, spec := range a.node.Aggs {
			grp.accs[i] = expr.NewAccumulator(spec)
		}
		key := string(a.keyBuf)
		a.groups[key] = grp
		a.order = append(a.order, key)
	}
	return grp, nil
}

// accumulate folds one row into an existing group.
func (a *hashAggOp) accumulate(grp *aggGroup, row types.Row) error {
	for i, spec := range a.node.Aggs {
		if spec.Kind == expr.AggCountStar {
			grp.accs[i].Add(types.NewInt64(1))
			continue
		}
		v, err := spec.Arg.Eval(row)
		if err != nil {
			return err
		}
		grp.accs[i].Add(v)
	}
	return nil
}

// absorbVec folds one still-encoded vector batch: selected rows are
// assembled into a reused scratch row through per-column iterators (so
// unselected rows of raw pages are skipped, not decoded), and when the
// single group column arrives dictionary- or run-length-encoded the
// group lookup is cached per code/run instead of re-encoded per row.
func (a *hashAggOp) absorbVec(vb *types.VecBatch) error {
	ncols := len(vb.Cols)
	if cap(a.vecIters) < ncols {
		a.vecIters = make([]vecIter, ncols)
	}
	iters := a.vecIters[:ncols]
	for j := range iters {
		iters[j].reset(&vb.Cols[j])
	}
	if cap(a.vecScratch) < ncols {
		a.vecScratch = make(types.Row, ncols)
	}
	scratch := a.vecScratch[:ncols]

	// Group-key specialization: a single ColRef group over an encoded
	// column lets one lookup serve a whole run or dictionary code.
	gcol := -1
	var gv *types.Vector
	if len(a.node.Groups) == 1 {
		if cr, ok := a.node.Groups[0].(*expr.ColRef); ok && cr.Idx < ncols {
			gcol = cr.Idx
			gv = &vb.Cols[gcol]
		}
	}
	var codeGroups []*aggGroup
	if gv != nil && gv.Enc == types.VecDict {
		codeGroups = make([]*aggGroup, len(gv.Values))
	}
	var runGrp *aggGroup
	runK := -1

	emit := func(ri int32) error {
		for j := range iters {
			d, err := iters[j].at(ri)
			if err != nil {
				return err
			}
			scratch[j] = d
		}
		var grp *aggGroup
		var err error
		switch {
		case codeGroups != nil:
			c := gv.Codes[ri]
			if grp = codeGroups[c]; grp == nil {
				grp, err = a.lookupGroup(scratch)
				// Never cache a spill diversion: later rows of this code
				// must divert too, row by row.
				if grp != nil && a.sp == nil {
					codeGroups[c] = grp
				}
			}
		case gv != nil && gv.Enc == types.VecRLE:
			if k := iters[gcol].k; runK == k && runGrp != nil {
				grp = runGrp
			} else {
				grp, err = a.lookupGroup(scratch)
				if grp != nil && a.sp == nil {
					runGrp, runK = grp, k
				} else {
					runGrp, runK = nil, -1
				}
			}
		default:
			grp, err = a.lookupGroup(scratch)
		}
		if err != nil || grp == nil {
			return err
		}
		return a.accumulate(grp, scratch)
	}
	if sel := vb.Sel; sel != nil {
		for _, ri := range sel {
			if err := emit(ri); err != nil {
				return err
			}
		}
		return nil
	}
	for i, n := 0, vb.Len(); i < n; i++ {
		if err := emit(int32(i)); err != nil {
			return err
		}
	}
	return nil
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
	a.groups = make(map[string]*aggGroup)
	a.order = a.order[:0]
	a.emitted = 0
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
		grp := &aggGroup{accs: make([]expr.Accumulator, len(a.node.Aggs))}
		for i, spec := range a.node.Aggs {
			grp.accs[i] = expr.NewAccumulator(spec)
		}
		a.groups[""] = grp
		a.order = append(a.order, "")
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
	a.groups = make(map[string]*aggGroup)
	a.order = a.order[:0]
	a.emitted = 0
	a.level = part.level
	a.noSpill = part.level > maxSpillLevel
	cur, err := openCursor(part.file)
	if err != nil {
		return err
	}
	for {
		if err := a.ctx.canceled(); err != nil {
			cur.close()
			return err
		}
		row, ok, rerr := cur.next()
		if rerr != nil {
			cur.close()
			return rerr
		}
		if !ok {
			break
		}
		if err := a.absorb(row); err != nil {
			cur.close()
			return err
		}
	}
	cur.close()
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
		grp := a.groups[a.order[a.emitted]]
		a.emitted++
		out := b.AddRow()
		n := copy(out, grp.keys)
		for i, acc := range grp.accs {
			out[n+i] = acc.Result()
		}
	}
	return b.Len() > 0, nil
}

// Close implements Operator: removes any partitions a cancel or error
// left unprocessed and returns the memory reservation.
func (a *hashAggOp) Close() error {
	a.groups = nil
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
