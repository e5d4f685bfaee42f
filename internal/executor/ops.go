package executor

import (
	"fmt"

	"hawq/internal/expr"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// scanOp streams the committed rows of the segment files belonging to
// this segment, pulled a block at a time on the caller's goroutine.
//
// Every format is a vector source: blocks arrive through the segment's
// block cache as types.VecBatch typed column vectors (columnar pages
// decoded once, keeping their runs or dictionary; row-oriented blocks
// transposed into flat vectors), zone maps prune pages before
// decompression, and the whole scan predicate — kernels first, the rest
// row by row over the survivors — narrows the selection, all before a
// row is materialized. NextVecBatch hands a block on as it is; NextBatch
// materializes its survivors into the caller's batch. The two may be
// mixed on one scan: every call takes the next block.
type scanOp struct {
	ctx  *Context
	node *plan.Scan

	zonePreds []expr.ColCmp
	filter    *expr.VecFilter
	opStats   *obs.OpStats
	st        storage.ScanStats

	next int                // the segment file to open after cur
	cur  *storage.BlockScan // the open segment file, nil between files
}

func newScanOp(ctx *Context, node *plan.Scan) *scanOp {
	s := &scanOp{ctx: ctx, node: node, filter: expr.CompileFilter(node.Filter)}
	// What the filter compares with a constant, over the projected
	// width, is what zone maps can refute per page.
	for _, cmp := range s.filter.Cmps() {
		if cmp.Col < node.Schema.Len() {
			s.zonePreds = append(s.zonePreds, cmp)
		}
	}
	return s
}

// setOpStats implements statsSink: the scan attributes pages skipped and
// block-cache hits and misses to its own slot, in Close.
func (s *scanOp) setOpStats(st *obs.OpStats) { s.opStats = st }

// Open implements Operator. Files are opened as the scan reaches them.
func (s *scanOp) Open() error {
	s.next = 0
	return nil
}

// NextVecBatch implements VecSource: the next block with a surviving
// row, the scan predicate applied to its selection.
func (s *scanOp) NextVecBatch() (*types.VecBatch, error) {
	vb, err := s.pull()
	if err != nil {
		s.next = len(s.node.SegFiles) // a failed scan has no more rows
	}
	return vb, err
}

func (s *scanOp) pull() (*types.VecBatch, error) {
	for {
		if err := s.ctx.canceled(); err != nil {
			return nil, err
		}
		if s.cur == nil {
			files := s.node.SegFiles
			for s.next < len(files) && files[s.next].SegmentID != s.ctx.Segment {
				s.next++
			}
			if s.next >= len(files) {
				return nil, nil
			}
			cur, err := s.ctx.Cache.OpenScan(s.ctx.FS, s.node.Table.Storage, files[s.next], s.node.Proj, s.zonePreds, &s.st)
			if err != nil {
				return nil, err
			}
			s.cur = cur
			s.next++
		}
		vb, err := s.cur.Next()
		if err != nil {
			return nil, err
		}
		if vb == nil {
			if err := s.closeFile(); err != nil {
				return nil, err
			}
			continue
		}
		if err := s.filter.Apply(vb); err != nil {
			types.PutVecBatch(vb)
			return nil, err
		}
		if vb.SelCount() > 0 {
			return vb, nil
		}
		types.PutVecBatch(vb)
	}
}

// NextBatch implements Operator.
func (s *scanOp) NextBatch(b *types.Batch) (bool, error) {
	vb, err := s.NextVecBatch()
	if vb == nil {
		return false, err
	}
	vb.Materialize(b, nil)
	types.PutVecBatch(vb)
	return true, nil
}

func (s *scanOp) closeFile() error {
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur = nil
	return err
}

// Close implements Operator.
func (s *scanOp) Close() error {
	s.next = len(s.node.SegFiles)
	if s.opStats != nil {
		s.opStats.PagesSkipped += s.st.PagesSkipped
		s.opStats.CacheHits += s.st.CacheHits
		s.opStats.CacheMisses += s.st.CacheMisses
	}
	s.st = storage.ScanStats{}
	return s.closeFile()
}

// externalScanOp reads the segment's share of a PXF table, pulling rows
// from the engine's source into the caller's batch.
type externalScanOp struct {
	ctx  *Context
	node *plan.ExternalScan
	next func() (types.Row, error) // nil before Open and past the end
}

func newExternalScanOp(ctx *Context, node *plan.ExternalScan) (Operator, error) {
	if ctx.External == nil {
		return nil, fmt.Errorf("executor: no external engine bound for %s", node.Table.Name)
	}
	return &externalScanOp{ctx: ctx, node: node}, nil
}

// Open implements Operator.
func (e *externalScanOp) Open() (err error) {
	e.next, err = e.ctx.External.OpenExternal(e.node, e.ctx.Segment)
	return err
}

// NextBatch implements Operator: up to types.DefaultBatchRows rows that
// pass the scan filter.
func (e *externalScanOp) NextBatch(b *types.Batch) (bool, error) {
	b.Reset(len(e.node.Proj))
	for e.next != nil && b.Len() < types.DefaultBatchRows {
		if err := e.ctx.canceled(); err != nil {
			return false, err
		}
		row, err := e.next()
		if err != nil {
			return false, err
		}
		if row == nil {
			e.next = nil
			break
		}
		if e.node.Filter != nil {
			ok, err := expr.EvalBool(e.node.Filter, row)
			if err != nil {
				return false, err
			}
			if !ok {
				continue
			}
		}
		b.AppendRow(row)
	}
	return b.Len() > 0, nil
}

// Close implements Operator.
func (e *externalScanOp) Close() error {
	e.next = nil
	return nil
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
		kept := 0
		for i := 0; i < b.Len(); i++ {
			if pass, err := expr.EvalBool(s.pred, b.Row(i)); err != nil {
				return false, err
			} else if pass {
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
func (s *selectOp) Close() error { return s.in.Close() }

// projectOp computes expressions, evaluating them over a reused scratch
// batch into the caller's output batch. A Project of columns alone over a
// vector source — a scan — instead pulls vectors and materializes only
// the columns it keeps, straight into the caller's batch.
type projectOp struct {
	in      Operator
	exprs   []expr.Expr
	scratch *types.Batch
	// vs is in as a vector source, and cols the column each output cell
	// is, when every expression is a column.
	vs   VecSource
	cols []int
}

func newProjectOp(in Operator, exprs []expr.Expr) *projectOp {
	p := &projectOp{in: in, exprs: exprs}
	vs, ok := in.(VecSource)
	if !ok {
		return p
	}
	cols := make([]int, len(exprs))
	for j, e := range exprs {
		c, ok := e.(*expr.ColRef)
		if !ok {
			return p
		}
		cols[j] = c.Idx
	}
	p.vs, p.cols = vs, cols
	return p
}

// Open implements Operator.
func (p *projectOp) Open() error { return p.in.Open() }

// NextBatch implements Operator.
func (p *projectOp) NextBatch(b *types.Batch) (bool, error) {
	if p.vs != nil {
		vb, err := p.vs.NextVecBatch()
		if vb == nil {
			return false, err
		}
		for _, c := range p.cols {
			if w := len(vb.Cols); c >= w {
				types.PutVecBatch(vb)
				return false, fmt.Errorf("executor: column %d out of range (row width %d)", c, w)
			}
		}
		vb.Materialize(b, p.cols)
		types.PutVecBatch(vb)
		return true, nil
	}
	if p.scratch == nil {
		p.scratch = types.GetBatch(0)
	}
	ok, err := p.in.NextBatch(p.scratch)
	if err != nil || !ok {
		return false, err
	}
	b.Reset(len(p.exprs))
	b.Extend(p.scratch.Len())
	for i := 0; i < b.Len(); i++ {
		in, out := p.scratch.Row(i), b.Row(i)
		for j, e := range p.exprs {
			if out[j], err = e.Eval(in); err != nil {
				return false, err
			}
		}
	}
	return true, nil
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
