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

// scanBatchDepth is the batch-channel depth between the storage reader
// goroutine and the scan operator (each entry is a whole block's rows).
const scanBatchDepth = 4

// scanOp streams the committed rows of the segment files belonging to
// this segment. The push-style storage scan runs in a goroutine feeding
// a bounded channel, which keeps the operator pull-based;
// Context.RowMode falls back to the tuple-at-a-time channel.
//
// Every format is a vector source: blocks arrive through the segment's
// block cache as types.VecBatch column vectors (columnar pages still
// encoded, row-oriented blocks transposed into flat vectors), zone maps
// prune pages before decompression, runtime bloom filters narrow the
// selection before decode, and the vector filter kernels consume the
// scan predicate's kernelizable conjuncts — all before a row is
// materialized. A consumer that called EnableVec receives the batches
// as-is through NextVecBatch; otherwise the producer materializes
// survivors (and applies any residual predicate) into ordinary pooled
// batches.
type scanOp struct {
	ctx  *Context
	node *plan.Scan

	rowMode bool
	vecMode bool // consumer called EnableVec: deliver vector batches
	ch      chan *types.Batch
	vch     chan *types.VecBatch
	rowCh   chan types.Row
	errc    chan error
	stop    chan struct{}
	wg      sync.WaitGroup
	open    bool
	cur     batchCursor

	zonePreds []storage.ZonePred
	opStats   *obs.OpStats
}

func newScanOp(ctx *Context, node *plan.Scan) *scanOp {
	s := &scanOp{ctx: ctx, node: node, rowMode: ctx.RowMode}
	if !s.rowMode {
		s.zonePreds = zonePredsFromFilter(node.Filter, node.Schema.Len())
	}
	return s
}

// zonePredsFromFilter extracts the pushdown-able conjuncts of a scan
// filter: <ColRef> <comparison> <non-NULL constant operand> over the
// projected width, the shape zone maps can refute per page.
func zonePredsFromFilter(filter expr.Expr, width int) []storage.ZonePred {
	if filter == nil {
		return nil
	}
	var preds []storage.ZonePred
	for _, c := range expr.Conjuncts(filter, nil) {
		bo, ok := c.(*expr.BinOp)
		if !ok {
			continue
		}
		cr, ok := bo.L.(*expr.ColRef)
		if !ok || cr.Idx >= width {
			continue
		}
		val, ok := expr.ConstOperand(bo.R)
		if !ok {
			continue
		}
		op, ok := zoneOpOf(bo.Op)
		if !ok {
			continue
		}
		preds = append(preds, storage.ZonePred{Col: cr.Idx, Op: op, Val: val})
	}
	return preds
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
// runtime-filter row removals to its own slot (flushed once when the
// producer goroutine exits; Stats is read only after Close joins it).
func (s *scanOp) setOpStats(st *obs.OpStats) { s.opStats = st }

// EnableVec implements VecSource: vector delivery is possible when the
// context allows batches and the whole scan filter is consumable by the
// vector kernels (no residual — a residual would force materialization
// before handoff, defeating the point).
func (s *scanOp) EnableVec() bool {
	if s.rowMode || s.open {
		return s.vecMode
	}
	if !expr.VecFilterable(s.node.Filter, s.node.Schema.Len()) {
		return false
	}
	s.vecMode = true
	return true
}

// Open implements Operator: it starts the storage reader goroutine. The
// producer is joined by Close, and exits — returning its in-flight
// arena batch to the pool — when the consumer abandons the scan early
// (Close) or the per-query context is canceled.
func (s *scanOp) Open() error {
	s.errc = make(chan error, 1)
	s.stop = make(chan struct{})
	s.open = true
	s.wg.Add(1)
	switch {
	case s.rowMode:
		s.rowCh = make(chan types.Row, 256)
		go s.produceRows()
	case s.vecMode:
		s.vch = make(chan *types.VecBatch, scanBatchDepth)
		go s.produceVec()
	default:
		s.ch = make(chan *types.Batch, scanBatchDepth)
		go s.produceVec()
	}
	return nil
}

// produceVec is the batch producer: per block it applies runtime bloom
// filters (before decode), then the vector filter kernels, then either
// hands the vector batch to a vec consumer or materializes survivors
// into a pooled batch.
func (s *scanOp) produceVec() {
	defer s.wg.Done()
	st := &storage.ScanStats{}
	var rtfRemoved int64
	var hashBuf []byte
	defer func() {
		if s.opStats != nil {
			s.opStats.PagesSkipped += st.PagesSkipped
			s.opStats.RTFilterRows += rtfRemoved
			s.opStats.CacheHits += st.CacheHits
			s.opStats.CacheMisses += st.CacheMisses
		}
	}()
	if s.vecMode {
		defer close(s.vch)
	} else {
		defer close(s.ch)
	}
	for _, sf := range s.node.SegFiles {
		if sf.SegmentID != s.ctx.Segment {
			continue
		}
		err := s.ctx.Cache.ScanVecBatches(s.ctx.FS, s.node.Table.Storage, s.node.Table.Schema, sf, s.node.Proj, s.zonePreds, st, func(vb *types.VecBatch) error {
			for _, t := range s.node.RuntimeFilters {
				if t.Col >= len(vb.Cols) || vb.SelCount() == 0 {
					continue
				}
				bloom := s.ctx.Filters.Lookup(t.ID)
				if bloom == nil {
					continue // not published yet: pass unfiltered, stay correct
				}
				removed, buf, err := applyBloomVec(&vb.Cols[t.Col], bloom, vb, hashBuf)
				hashBuf = buf
				if err != nil {
					types.PutVecBatch(vb)
					return err
				}
				rtfRemoved += int64(removed)
			}
			residual, err := expr.FilterVec(s.node.Filter, vb)
			if err != nil {
				types.PutVecBatch(vb)
				return err
			}
			if vb.SelCount() == 0 {
				types.PutVecBatch(vb)
				return nil
			}
			if s.vecMode {
				// vecMode requires VecFilterable, so residual is nil here.
				select {
				case s.vch <- vb:
					return nil
				case <-s.stop:
					types.PutVecBatch(vb)
					return errScanStopped
				case <-s.ctx.doneCh():
					types.PutVecBatch(vb)
					return s.ctx.cause()
				}
			}
			b := types.GetBatch(0)
			err = vb.Materialize(b)
			types.PutVecBatch(vb)
			if err != nil {
				types.PutBatch(b)
				return err
			}
			if residual != nil {
				if err := expr.FilterBatch(residual, b); err != nil {
					types.PutBatch(b)
					return err
				}
			}
			if b.Len() == 0 {
				types.PutBatch(b)
				return nil
			}
			select {
			case s.ch <- b:
				return nil
			case <-s.stop:
				types.PutBatch(b)
				return errScanStopped
			case <-s.ctx.doneCh():
				types.PutBatch(b)
				return s.ctx.cause()
			}
		})
		if err == errScanStopped {
			return
		}
		if err != nil {
			s.errc <- err
			return
		}
	}
}

// NextVecBatch implements VecSource.
func (s *scanOp) NextVecBatch() (*types.VecBatch, error) {
	vb, ok := <-s.vch
	if !ok {
		select {
		case err := <-s.errc:
			return nil, err
		default:
			return nil, nil
		}
	}
	return vb, nil
}

// produceRows is the RowMode producer: one channel send per row.
func (s *scanOp) produceRows() {
	defer s.wg.Done()
	defer close(s.rowCh)
	for _, sf := range s.node.SegFiles {
		if sf.SegmentID != s.ctx.Segment {
			continue
		}
		err := storage.Scan(s.ctx.FS, s.node.Table.Storage, s.node.Table.Schema, sf, s.node.Proj, func(row types.Row) error {
			if s.node.Filter != nil {
				ok, err := expr.EvalBool(s.node.Filter, row)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			select {
			case s.rowCh <- row:
				return nil
			case <-s.stop:
				return errScanStopped
			case <-s.ctx.doneCh():
				return s.ctx.cause()
			}
		})
		if err == errScanStopped {
			return
		}
		if err != nil {
			s.errc <- err
			return
		}
	}
}

// NextBatch implements BatchOperator: it swaps the next decoded batch
// into b, recycling b's previous arena through the pool.
func (s *scanOp) NextBatch(b *types.Batch) (bool, error) {
	if s.rowMode {
		return nextBatchFromRows(s, b)
	}
	if s.vecMode {
		// A consumer that enabled the vector path but pulls decoded
		// batches anyway (mixed pipelines) gets survivors materialized.
		vb, err := s.NextVecBatch()
		if err != nil || vb == nil {
			return false, err
		}
		err = vb.Materialize(b)
		types.PutVecBatch(vb)
		return err == nil, err
	}
	nb, ok := <-s.ch
	if !ok {
		select {
		case err := <-s.errc:
			return false, err
		default:
			return false, nil
		}
	}
	*b, *nb = *nb, *b
	types.PutBatch(nb)
	return true, nil
}

// Next implements Operator.
func (s *scanOp) Next() (types.Row, bool, error) {
	if !s.rowMode {
		return s.cur.next(s)
	}
	row, ok := <-s.rowCh
	if !ok {
		select {
		case err := <-s.errc:
			return nil, false, err
		default:
			return nil, false, nil
		}
	}
	return row, true, nil
}

// Close implements Operator: it stops the producer, drains any batches
// it already handed off back into the pool, and joins the goroutine so
// no scan work (or pooled batch) outlives the operator.
func (s *scanOp) Close() error {
	if s.open {
		s.open = false
		close(s.stop)
		// Drain so the producer goroutine exits.
		switch {
		case s.rowMode:
			for range s.rowCh {
			}
		case s.vecMode:
			for vb := range s.vch {
				types.PutVecBatch(vb)
			}
		default:
			for b := range s.ch {
				types.PutBatch(b)
			}
		}
		s.wg.Wait()
	}
	s.cur.release()
	return nil
}

// externalScanOp bridges to the PXF engine.
type externalScanOp struct {
	scanOpBase
	ctx  *Context
	node *plan.ExternalScan
}

// scanOpBase shares the channel plumbing between row-push scan-like
// operators.
type scanOpBase struct {
	ch   chan types.Row
	errc chan error
	stop chan struct{}
	wg   sync.WaitGroup
	open bool
}

func (b *scanOpBase) init() {
	b.ch = make(chan types.Row, 256)
	b.errc = make(chan error, 1)
	b.stop = make(chan struct{})
	b.open = true
}

func (b *scanOpBase) next() (types.Row, bool, error) {
	row, ok := <-b.ch
	if !ok {
		select {
		case err := <-b.errc:
			return nil, false, err
		default:
			return nil, false, nil
		}
	}
	return row, true, nil
}

func (b *scanOpBase) close() {
	if b.open {
		b.open = false
		close(b.stop)
		for range b.ch {
		}
		b.wg.Wait()
	}
}

func newExternalScanOp(ctx *Context, node *plan.ExternalScan) (Operator, error) {
	if ctx.External == nil {
		return nil, fmt.Errorf("executor: no external engine bound for %s", node.Table.Name)
	}
	return &externalScanOp{ctx: ctx, node: node}, nil
}

// Open implements Operator.
func (e *externalScanOp) Open() error {
	e.init()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer close(e.ch)
		err := e.ctx.External.ScanExternal(e.node, e.ctx.Segment, func(row types.Row) error {
			if e.node.Filter != nil {
				ok, err := expr.EvalBool(e.node.Filter, row)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			select {
			case e.ch <- row:
				return nil
			case <-e.stop:
				return errScanStopped
			case <-e.ctx.doneCh():
				return e.ctx.cause()
			}
		})
		if err != nil && err != errScanStopped {
			e.errc <- err
		}
	}()
	return nil
}

// Next implements Operator.
func (e *externalScanOp) Next() (types.Row, bool, error) { return e.next() }

// Close implements Operator.
func (e *externalScanOp) Close() error {
	e.close()
	return nil
}

// appendOp concatenates children (partition scans), serving both the
// row and batch interfaces over whichever each child supports.
type appendOp struct {
	ops []BatchOperator
	cur int
}

func newAppendOp(ctx *Context, node *plan.Append) (Operator, error) {
	a := &appendOp{}
	for _, c := range node.Inputs {
		op, err := Build(ctx, c)
		if err != nil {
			return nil, err
		}
		a.ops = append(a.ops, AsBatch(op))
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

// Next implements Operator.
func (a *appendOp) Next() (types.Row, bool, error) {
	for a.cur < len(a.ops) {
		row, ok, err := a.ops[a.cur].Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		if err := a.advance(); err != nil {
			return nil, false, err
		}
	}
	return nil, false, nil
}

// NextBatch implements BatchOperator.
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

// selectOp filters rows; the batch path compacts each input batch in
// place. Its loops skip an unbounded number of non-matching inputs, so
// both check the query context each iteration.
type selectOp struct {
	ctx  *Context
	in   Operator
	bin  BatchOperator
	pred expr.Expr
}

// Open implements Operator.
func (s *selectOp) Open() error { return s.in.Open() }

// Next implements Operator.
func (s *selectOp) Next() (types.Row, bool, error) {
	for {
		if err := s.ctx.canceled(); err != nil {
			return nil, false, err
		}
		row, ok, err := s.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := expr.EvalBool(s.pred, row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
	}
}

// NextBatch implements BatchOperator.
func (s *selectOp) NextBatch(b *types.Batch) (bool, error) {
	for {
		if err := s.ctx.canceled(); err != nil {
			return false, err
		}
		ok, err := s.bin.NextBatch(b)
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

// projectOp computes expressions; the batch path evaluates them over a
// reused scratch batch into the caller's output batch.
type projectOp struct {
	in      Operator
	bin     BatchOperator
	exprs   []expr.Expr
	scratch *types.Batch
}

// Open implements Operator.
func (p *projectOp) Open() error { return p.in.Open() }

// Next implements Operator.
func (p *projectOp) Next() (types.Row, bool, error) {
	row, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(types.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

// NextBatch implements BatchOperator.
func (p *projectOp) NextBatch(b *types.Batch) (bool, error) {
	if p.scratch == nil {
		p.scratch = types.GetBatch(0)
	}
	ok, err := p.bin.NextBatch(p.scratch)
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

// limitOp implements LIMIT/OFFSET; closing early propagates STOP through
// motion operators below.
type limitOp struct {
	ctx     *Context
	in      Operator
	n       int64
	offset  int64
	seen    int64
	skipped int64
	done    bool
}

// Open implements Operator.
func (l *limitOp) Open() error { return l.in.Open() }

// Next implements Operator.
func (l *limitOp) Next() (types.Row, bool, error) {
	if l.done || l.seen >= l.n {
		return nil, false, nil
	}
	// The OFFSET-skipping phase can consume unboundedly many input rows
	// before producing one, so observe cancellation each iteration.
	for {
		if err := l.ctx.canceled(); err != nil {
			return nil, false, err
		}
		row, ok, err := l.in.Next()
		if err != nil || !ok {
			l.done = true
			return nil, false, err
		}
		if l.skipped < l.offset {
			l.skipped++
			continue
		}
		l.seen++
		return row, true, nil
	}
}

// Close implements Operator.
func (l *limitOp) Close() error { return l.in.Close() }

// distinctOp removes duplicates by full-row encoding. Like selectOp its
// loop can skip unboundedly many duplicates, so it checks the query
// context each iteration.
type distinctOp struct {
	ctx  *Context
	in   Operator
	seen map[string]struct{}
	buf  []byte
}

// Open implements Operator.
func (d *distinctOp) Open() error {
	d.seen = make(map[string]struct{})
	return d.in.Open()
}

// Next implements Operator.
func (d *distinctOp) Next() (types.Row, bool, error) {
	for {
		if err := d.ctx.canceled(); err != nil {
			return nil, false, err
		}
		row, ok, err := d.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		d.buf = types.EncodeRow(d.buf[:0], row)
		if _, dup := d.seen[string(d.buf)]; dup {
			continue
		}
		d.seen[string(d.buf)] = struct{}{}
		return row, true, nil
	}
}

// Close implements Operator.
func (d *distinctOp) Close() error { return d.in.Close() }

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

// Next implements Operator.
func (v *valuesOp) Next() (types.Row, bool, error) {
	if v.pos >= len(v.rows) {
		return nil, false, nil
	}
	row := v.rows[v.pos]
	v.pos++
	return row, true, nil
}

// Close implements Operator.
func (v *valuesOp) Close() error { return nil }
