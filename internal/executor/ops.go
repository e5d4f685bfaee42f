package executor

import (
	"errors"
	"fmt"
	"sync"

	"hawq/internal/expr"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// errScanStopped aborts a storage push-scan when the consumer closed.
var errScanStopped = errors.New("executor: scan stopped")

// scanBatchDepth is the batch-channel depth between a scan's producer
// goroutine and the operator (each entry is a whole block's rows).
const scanBatchDepth = 4

// feedItem is one hand-off from a producer goroutine: a materialized
// batch or, from a scan in vector mode, a vector batch.
type feedItem struct {
	b  *types.Batch
	vb *types.VecBatch
}

// release returns the item's batch to its pool.
func (it feedItem) release() {
	types.PutBatch(it.b)
	types.PutVecBatch(it.vb)
}

// batchFeed is the bounded channel between a push-style producer
// goroutine (a storage or PXF scan) and the pull-based operator in front
// of it. It owns the whole producer lifecycle for both kinds of batch:
// one channel, one end-of-stream, one error path. The producer is joined
// by close, and exits — returning its in-flight batch to the pool — when
// the consumer abandons the scan early or the per-query context is
// canceled.
type batchFeed struct {
	ch   chan feedItem
	errc chan error
	stop chan struct{}
	wg   sync.WaitGroup
	open bool
}

// start runs produce in a goroutine; its error, unless it is the
// consumer's own stop, surfaces from next/nextVec after the last batch.
// The error is published before the channel closes, so a consumer that
// sees end-of-stream always sees the error with it.
func (f *batchFeed) start(produce func() error) {
	f.ch = make(chan feedItem, scanBatchDepth)
	f.errc = make(chan error, 1)
	f.stop = make(chan struct{})
	f.open = true
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer close(f.ch)
		if err := produce(); err != nil && err != errScanStopped {
			f.errc <- err
		}
	}()
}

// put hands it to the consumer, or releases it when the consumer stopped
// or the query was canceled.
func (f *batchFeed) put(ctx *Context, it feedItem) error {
	select {
	case f.ch <- it:
		return nil
	case <-f.stop:
		it.release()
		return errScanStopped
	case <-ctx.doneCh():
		it.release()
		return ctx.cause()
	}
}

// err reports the producer's failure once its channel is closed.
func (f *batchFeed) err() error {
	select {
	case err := <-f.errc:
		return err
	default:
		return nil
	}
}

// next swaps the next produced batch into b, recycling b's previous
// arena through the pool. A vector batch here means the consumer enabled
// vector delivery and then pulled rows: an error, never a silent
// end-of-stream.
func (f *batchFeed) next(b *types.Batch) (bool, error) {
	it, ok := <-f.ch
	if !ok {
		return false, f.err()
	}
	if it.b == nil {
		it.release()
		return false, errors.New("executor: NextBatch on a scan in vector mode")
	}
	*b, *it.b = *it.b, *b
	types.PutBatch(it.b)
	return true, nil
}

// nextVec returns the next produced vector batch (the caller releases
// it), or nil at end of stream.
func (f *batchFeed) nextVec() (*types.VecBatch, error) {
	it, ok := <-f.ch
	if !ok {
		return nil, f.err()
	}
	if it.vb == nil {
		it.release()
		return nil, errors.New("executor: NextVecBatch on a scan in row-batch mode")
	}
	return it.vb, nil
}

// close stops the producer, drains whatever it already handed off back
// into the pools, and joins the goroutine so no scan work (or pooled
// batch) outlives the operator.
func (f *batchFeed) close() {
	if !f.open {
		return
	}
	f.open = false
	close(f.stop)
	for it := range f.ch {
		it.release()
	}
	f.wg.Wait()
}

// scanOp streams the committed rows of the segment files belonging to
// this segment. The push-style storage scan runs in a goroutine feeding
// a bounded channel, which keeps the operator pull-based.
//
// Every format is a vector source: blocks arrive through the segment's
// block cache as types.VecBatch typed column vectors (columnar pages
// decoded once, keeping their runs or dictionary; row-oriented blocks
// transposed into flat vectors), zone maps prune pages before
// decompression, and the whole scan predicate — kernels first, the rest
// row by row over the survivors — narrows the selection, all before a
// row is materialized. A consumer that called EnableVec receives the
// batches as-is through NextVecBatch; otherwise the producer
// materializes the survivors into ordinary pooled batches.
type scanOp struct {
	batchFeed
	ctx  *Context
	node *plan.Scan

	vecMode bool // consumer called EnableVec: deliver vector batches

	zonePreds []storage.ZonePred
	filter    *expr.VecFilter
	opStats   *obs.OpStats
}

func newScanOp(ctx *Context, node *plan.Scan) *scanOp {
	s := &scanOp{ctx: ctx, node: node, filter: expr.CompileFilter(node.Filter)}
	// What the filter compares with a constant, over the projected
	// width, is what zone maps can refute per page.
	for _, cmp := range s.filter.Cmps() {
		if op, ok := zoneOpOf(cmp.Op); ok && cmp.Col < node.Schema.Len() {
			s.zonePreds = append(s.zonePreds, storage.ZonePred{Col: cmp.Col, Op: op, Val: cmp.Val})
		}
	}
	return s
}

// zoneOpOf maps a comparison operator onto its zone-map counterpart.
func zoneOpOf(op expr.BinOpKind) (storage.ZoneOp, bool) {
	switch op {
	case expr.OpEq:
		return storage.ZoneEq, true
	case expr.OpNe:
		return storage.ZoneNe, true
	case expr.OpLt:
		return storage.ZoneLt, true
	case expr.OpLe:
		return storage.ZoneLe, true
	case expr.OpGt:
		return storage.ZoneGt, true
	case expr.OpGe:
		return storage.ZoneGe, true
	}
	return 0, false
}

// setOpStats implements statsSink: the scan attributes pages skipped and
// block-cache hits and misses to its own slot (flushed once when the
// producer goroutine exits; Stats is read only after Close joins it).
func (s *scanOp) setOpStats(st *obs.OpStats) { s.opStats = st }

// EnableVec implements VecSource: a scan that has not started yet can
// always deliver vectors.
func (s *scanOp) EnableVec() bool {
	if !s.open {
		s.vecMode = true
	}
	return s.vecMode
}

// Open implements Operator: it starts the storage reader goroutine.
func (s *scanOp) Open() error {
	s.start(s.produce)
	return nil
}

// produce is the scan's producer: per block it applies the scan
// predicate, then either hands the vector batch to a vec consumer or
// materializes survivors into a pooled batch.
func (s *scanOp) produce() error {
	st := &storage.ScanStats{}
	defer func() {
		if s.opStats != nil {
			s.opStats.PagesSkipped += st.PagesSkipped
			s.opStats.CacheHits += st.CacheHits
			s.opStats.CacheMisses += st.CacheMisses
		}
	}()
	for _, sf := range s.node.SegFiles {
		if sf.SegmentID != s.ctx.Segment {
			continue
		}
		err := s.ctx.Cache.ScanVecBatches(s.ctx.FS, s.node.Table.Storage, s.node.Table.Schema, sf, s.node.Proj, s.zonePreds, st, func(vb *types.VecBatch) error {
			if err := s.filter.Apply(vb); err != nil {
				types.PutVecBatch(vb)
				return err
			}
			if vb.SelCount() == 0 {
				types.PutVecBatch(vb)
				return nil
			}
			if s.vecMode {
				return s.put(s.ctx, feedItem{vb: vb})
			}
			b := types.GetBatch(0)
			vb.Materialize(b)
			types.PutVecBatch(vb)
			return s.put(s.ctx, feedItem{b: b})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// NextVecBatch implements VecSource.
func (s *scanOp) NextVecBatch() (*types.VecBatch, error) { return s.nextVec() }

// NextBatch implements Operator.
func (s *scanOp) NextBatch(b *types.Batch) (bool, error) { return s.next(b) }

// Close implements Operator.
func (s *scanOp) Close() error {
	s.close()
	return nil
}

// externalScanOp bridges to the PXF engine, whose push-style row
// callback fills pooled batches in a producer goroutine.
type externalScanOp struct {
	batchFeed
	ctx  *Context
	node *plan.ExternalScan
}

func newExternalScanOp(ctx *Context, node *plan.ExternalScan) (Operator, error) {
	if ctx.External == nil {
		return nil, fmt.Errorf("executor: no external engine bound for %s", node.Table.Name)
	}
	return &externalScanOp{ctx: ctx, node: node}, nil
}

// Open implements Operator.
func (e *externalScanOp) Open() error {
	e.start(e.produce)
	return nil
}

// produce copies the rows that pass the scan filter into a batch and
// hands it over each time it reaches types.DefaultBatchRows.
func (e *externalScanOp) produce() error {
	b := types.GetBatch(0)
	err := e.ctx.External.ScanExternal(e.node, e.ctx.Segment, func(row types.Row) error {
		if e.node.Filter != nil {
			ok, err := expr.EvalBool(e.node.Filter, row)
			if err != nil || !ok {
				return err
			}
		}
		b.AppendRow(row)
		if b.Len() < types.DefaultBatchRows {
			return nil
		}
		full := b
		b = types.GetBatch(0)
		return e.put(e.ctx, feedItem{b: full})
	})
	if err != nil || b.Len() == 0 {
		types.PutBatch(b)
		return err
	}
	return e.put(e.ctx, feedItem{b: b})
}

// NextBatch implements Operator.
func (e *externalScanOp) NextBatch(b *types.Batch) (bool, error) { return e.next(b) }

// Close implements Operator.
func (e *externalScanOp) Close() error {
	e.close()
	return nil
}

// appendOp concatenates children (partition scans).
type appendOp struct {
	ops []Operator
	cur int
}

func newAppendOp(ctx *Context, node *plan.Append) (Operator, error) {
	a := &appendOp{}
	for _, c := range node.Inputs {
		op, err := Build(ctx, c)
		if err != nil {
			return nil, err
		}
		a.ops = append(a.ops, op)
	}
	return a, nil
}

// Open implements Operator.
func (a *appendOp) Open() error {
	if len(a.ops) == 0 {
		return nil
	}
	return a.ops[0].Open()
}

// advance closes the exhausted current child and opens the next.
func (a *appendOp) advance() error {
	if err := a.ops[a.cur].Close(); err != nil {
		return err
	}
	a.cur++
	if a.cur < len(a.ops) {
		return a.ops[a.cur].Open()
	}
	return nil
}

// NextBatch implements Operator.
func (a *appendOp) NextBatch(b *types.Batch) (bool, error) {
	for a.cur < len(a.ops) {
		ok, err := a.ops[a.cur].NextBatch(b)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		if err := a.advance(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// Close implements Operator.
func (a *appendOp) Close() error {
	var err error
	for i := a.cur; i < len(a.ops); i++ {
		if cerr := a.ops[i].Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	a.cur = len(a.ops)
	return err
}

// selectOp filters rows, compacting each input batch in place. Its loop
// skips an unbounded number of non-matching batches, so it checks the
// query context each iteration.
type selectOp struct {
	ctx  *Context
	in   Operator
	pred expr.Expr
}

// Open implements Operator.
func (s *selectOp) Open() error { return s.in.Open() }

// NextBatch implements Operator.
func (s *selectOp) NextBatch(b *types.Batch) (bool, error) {
	for {
		if err := s.ctx.canceled(); err != nil {
			return false, err
		}
		ok, err := s.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		if err := expr.FilterBatch(s.pred, b); err != nil {
			return false, err
		}
		if b.Len() > 0 {
			return true, nil
		}
	}
}

// Close implements Operator.
func (s *selectOp) Close() error { return s.in.Close() }

// projectOp computes expressions, evaluating them over a reused scratch
// batch into the caller's output batch.
type projectOp struct {
	in      Operator
	exprs   []expr.Expr
	scratch *types.Batch
}

// Open implements Operator.
func (p *projectOp) Open() error { return p.in.Open() }

// NextBatch implements Operator.
func (p *projectOp) NextBatch(b *types.Batch) (bool, error) {
	if p.scratch == nil {
		p.scratch = types.GetBatch(0)
	}
	ok, err := p.in.NextBatch(p.scratch)
	if err != nil || !ok {
		return false, err
	}
	return true, expr.ProjectBatch(p.exprs, p.scratch, b)
}

// Close implements Operator.
func (p *projectOp) Close() error {
	if p.scratch != nil {
		types.PutBatch(p.scratch)
		p.scratch = nil
	}
	return p.in.Close()
}

// limitOp implements LIMIT/OFFSET by cutting its input batches; once the
// limit is reached it stops pulling, and the early Close propagates STOP
// through motion operators below.
type limitOp struct {
	ctx     *Context
	in      Operator
	n       int64
	offset  int64
	seen    int64
	skipped int64
}

// Open implements Operator.
func (l *limitOp) Open() error { return l.in.Open() }

// NextBatch implements Operator.
func (l *limitOp) NextBatch(b *types.Batch) (bool, error) {
	// The OFFSET-skipping phase can consume unboundedly many input
	// batches before producing one, so observe cancellation each
	// iteration.
	for l.seen < l.n {
		if err := l.ctx.canceled(); err != nil {
			return false, err
		}
		ok, err := l.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		rows := int64(b.Len())
		lo := min(l.offset-l.skipped, rows)
		hi := min(lo+l.n-l.seen, rows)
		l.skipped += lo
		l.seen += hi - lo
		b.Slice(int(lo), int(hi))
		if hi > lo {
			return true, nil
		}
	}
	return false, nil
}

// Close implements Operator.
func (l *limitOp) Close() error { return l.in.Close() }

// distinctOp removes duplicate rows, compacting each input batch in
// place: the rows met so far are the keys of a keyTable, so rows equal by
// value are one and the first stays. Every retained row is charged to
// the query's memory grant; there is no spill path, so exhausting the
// grant is a clean out-of-memory error. Like selectOp its loop can skip
// unboundedly many duplicates, so it checks the query context each
// iteration.
type distinctOp struct {
	ctx  *Context
	in   Operator
	mem  memBudget
	seen keyTable
	cols []int // every column of a row
}

// setOpStats implements statsSink: DISTINCT charges its row-set peak to
// this slot.
func (d *distinctOp) setOpStats(st *obs.OpStats) { d.mem.st = st }

// Open implements Operator.
func (d *distinctOp) Open() error { return d.in.Open() }

// NextBatch implements Operator.
func (d *distinctOp) NextBatch(b *types.Batch) (bool, error) {
	for {
		if err := d.ctx.canceled(); err != nil {
			return false, err
		}
		ok, err := d.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		kept := 0
		for i := 0; i < b.Len(); i++ {
			if novel, err := d.seen.admit(&d.mem, b.Row(i), d.cols); err != nil {
				return false, err
			} else if novel {
				b.MoveRow(kept, i)
				kept++
			}
		}
		b.Truncate(kept)
		if kept > 0 {
			return true, nil
		}
	}
}

// Close implements Operator.
func (d *distinctOp) Close() error {
	d.seen.reset()
	d.mem.releaseAll()
	return d.in.Close()
}

// valuesOp emits literal rows.
type valuesOp struct {
	rows []types.Row
	pos  int
}

// Open implements Operator.
func (v *valuesOp) Open() error {
	v.pos = 0
	return nil
}

// NextBatch implements Operator.
func (v *valuesOp) NextBatch(b *types.Batch) (bool, error) {
	b.Reset(0)
	end := min(v.pos+types.DefaultBatchRows, len(v.rows))
	for _, row := range v.rows[v.pos:end] {
		b.AppendRow(row)
	}
	v.pos = end
	return b.Len() > 0, nil
}

// Close implements Operator.
func (v *valuesOp) Close() error { return nil }
