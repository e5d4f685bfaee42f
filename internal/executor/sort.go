package executor

import (
	"sort"

	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/types"
)

// defaultSortMemRows is the in-memory buffer before a run spills.
const defaultSortMemRows = 1 << 18

// sortOp is an external sort: it buffers rows in memory, spills sorted
// runs when the buffer fills — by row count, or by bytes once the
// memory budget is exhausted — and merges the runs on output. Runs are
// workfiles: in the query's store when the dispatcher provided one
// (removed on teardown/cancel), else in a store of the sort's own under
// SpillDir, made at its first spill and removed in Close. Spill files
// model HAWQ writing intermediate data to local disks for performance
// (§2.6); a write failure there is surfaced so the cluster can mark the
// disk down and restart the query.
type sortOp struct {
	ctx  *Context
	in   Operator
	keys []plan.OrderKey

	mem      memBudget
	store    rowStore    // the buffered rows
	buf      []types.Row // views into store, in the order being sorted
	runs     []*wfRun
	own      *resource.Store // the runs' store when the query has none
	memLimit int

	// merge state
	heads    []types.Row // current head row per source (runs + final buf)
	sources  []rowSource
	inClosed bool
}

type rowSource interface {
	next() (types.Row, bool, error)
	close()
}

// setOpStats implements statsSink: the sort charges its buffer peak
// and spilled run traffic to this slot.
func (s *sortOp) setOpStats(st *obs.OpStats) { s.mem.st = st }

func newSortOp(ctx *Context, in Operator, keys []plan.OrderKey) *sortOp {
	lim := ctx.SortMemRows
	if lim <= 0 {
		lim = defaultSortMemRows
	}
	return &sortOp{ctx: ctx, in: in, keys: keys, memLimit: lim, mem: memBudget{ctx: ctx}}
}

// compareRows orders rows by the sort keys (NULLs first, as in
// types.Compare).
func compareRows(a, b types.Row, keys []plan.OrderKey) int {
	for _, k := range keys {
		c := types.Compare(a[k.Col], b[k.Col])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// Open implements Operator: consumes and sorts the input.
func (s *sortOp) Open() error {
	if err := s.in.Open(); err != nil {
		return err
	}
	err := drainRows(s.ctx, s.in, func(row types.Row) error {
		over, err := s.mem.grow(rowMem(row))
		if err != nil {
			return err
		}
		s.buf = append(s.buf, s.store.add(row))
		if over || len(s.buf) >= s.memLimit {
			return s.spill()
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.inClosed = true
	if err := s.in.Close(); err != nil {
		return err
	}
	sort.SliceStable(s.buf, func(i, j int) bool {
		return compareRows(s.buf[i], s.buf[j], s.keys) < 0
	})
	// Assemble merge sources: spilled runs plus the in-memory tail.
	for _, r := range s.runs {
		if err := r.openForRead(); err != nil {
			return err
		}
		s.sources = append(s.sources, r)
	}
	s.sources = append(s.sources, &memRun{rows: s.buf})
	s.heads = make([]types.Row, len(s.sources))
	for i, src := range s.sources {
		row, ok, err := src.next()
		if err != nil {
			return err
		}
		if ok {
			s.heads[i] = row
		}
	}
	return nil
}

// spill writes the sorted buffer as one run and releases its memory
// reservation.
func (s *sortOp) spill() error {
	sort.SliceStable(s.buf, func(i, j int) bool {
		return compareRows(s.buf[i], s.buf[j], s.keys) < 0
	})
	work := s.ctx.Work
	if work == nil {
		if s.own == nil {
			s.own = resource.NewStore(s.ctx.SpillDir, "sort", nil)
		}
		work = s.own
	}
	f, err := work.Create()
	if err != nil {
		return err
	}
	for _, row := range s.buf {
		if err := f.AppendRow(row); err != nil {
			f.Remove()
			return err
		}
	}
	if err := f.Finish(); err != nil {
		f.Remove()
		return err
	}
	if s.mem.st != nil {
		s.mem.st.SpillBytes += f.Bytes()
		s.mem.st.SpillFiles++
	}
	s.runs = append(s.runs, &wfRun{ctx: s.ctx, f: f})
	s.buf = s.buf[:0]
	s.store.reset()
	s.mem.releaseAll()
	return nil
}

// NextBatch implements Operator: k-way merge across runs. A workfile
// run's head is a view into its reader batch, so it is copied into b
// before its source advances.
func (s *sortOp) NextBatch(b *types.Batch) (bool, error) {
	b.Reset(0)
	for b.Len() < types.DefaultBatchRows {
		best := -1
		for i, h := range s.heads {
			if h == nil {
				continue
			}
			if best == -1 || compareRows(h, s.heads[best], s.keys) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		b.AppendRow(s.heads[best])
		row, ok, err := s.sources[best].next()
		if err != nil {
			return false, err
		}
		if !ok {
			row = nil
		}
		s.heads[best] = row
	}
	return b.Len() > 0, nil
}

// Close implements Operator.
func (s *sortOp) Close() error {
	for _, r := range s.runs {
		r.close()
	}
	s.runs = nil
	if s.own != nil {
		s.own.Cleanup()
		s.own = nil
	}
	s.sources = nil
	s.buf = nil
	s.store.reset()
	s.mem.releaseAll()
	if !s.inClosed {
		s.inClosed = true
		return s.in.Close()
	}
	return nil
}

// wfRun is a sorted run in the query's workfile store.
type wfRun struct {
	ctx *Context
	f   *resource.File
	cur *rowCursor
}

func (r *wfRun) openForRead() error {
	cur, err := openCursor(r.ctx, r.f)
	if err != nil {
		return err
	}
	r.cur = cur
	return nil
}

func (r *wfRun) next() (types.Row, bool, error) {
	return r.cur.next()
}

func (r *wfRun) close() {
	r.cur.close()
	r.cur = nil
	r.f.Remove()
}

// memRun serves the in-memory tail of the sort.
type memRun struct {
	rows []types.Row
	pos  int
}

func (m *memRun) next() (types.Row, bool, error) {
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	row := m.rows[m.pos]
	m.pos++
	return row, true, nil
}

func (m *memRun) close() {}
