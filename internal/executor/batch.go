package executor

import (
	"hawq/internal/resource"
	"hawq/internal/types"
)

// drainRows pulls every batch from an already-open input and invokes fn
// per row (a nil fn discards them). Rows passed to fn are views into a
// reused arena, valid only during the call. Drain and the blocking
// operators (sort, hash agg, join builds, insert) consume their inputs
// through this; checking the query context once per pull keeps even a
// fully-pipelined build loop cancellable.
func drainRows(ctx *Context, in Operator, fn func(types.Row) error) error {
	b := types.GetBatch(0)
	defer types.PutBatch(b)
	for {
		if err := ctx.canceled(); err != nil {
			return err
		}
		ok, err := in.NextBatch(b)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if fn == nil {
			continue
		}
		for i := 0; i < b.Len(); i++ {
			if err := fn(b.Row(i)); err != nil {
				return err
			}
		}
	}
}

// rowCursor serves the rows of a batch source one at a time, for a
// consumer that takes them singly: the join probe sides, the sort merge,
// the partition loads of the spilling operators. The source is whatever
// fills a batch — an operator's NextBatch, a workfile reader's Next — and
// the query context is checked before every refill, so a loop over next
// observes a cancel within one batch. A row it returns is a view into the
// cursor's batch, valid until the next call crosses a batch boundary.
type rowCursor struct {
	ctx  *Context
	fill func(*types.Batch) (bool, error)
	file *resource.Reader // closed with the cursor, when the source is a workfile
	b    *types.Batch
	idx  int
}

// opCursor starts a cursor over an open operator's output.
func opCursor(ctx *Context, src Operator) *rowCursor {
	return &rowCursor{ctx: ctx, fill: src.NextBatch}
}

// openCursor starts a cursor over a finished workfile.
func openCursor(ctx *Context, f *resource.File) (*rowCursor, error) {
	r, err := f.NewReader()
	if err != nil {
		return nil, err
	}
	return &rowCursor{ctx: ctx, fill: r.Next, file: r}, nil
}

// next returns the next row of the source, refilling the cursor's batch
// as needed. After the source's end it keeps reporting ok=false.
func (c *rowCursor) next() (types.Row, bool, error) {
	for c.b == nil || c.idx >= c.b.Len() {
		if err := c.ctx.canceled(); err != nil {
			return nil, false, err
		}
		if c.b == nil {
			c.b = types.GetBatch(0)
		}
		ok, err := c.fill(c.b)
		c.idx = 0
		if err != nil || !ok {
			c.b.Reset(0) // whatever the source left there is not output
			return nil, false, err
		}
	}
	row := c.b.Row(c.idx)
	c.idx++
	return row, true, nil
}

// close returns the cursor's batch to the pool and closes the workfile
// reader, if that is the source. A nil cursor has nothing to close.
func (c *rowCursor) close() {
	if c == nil {
		return
	}
	if c.b != nil {
		types.PutBatch(c.b)
		c.b = nil
	}
	if c.file != nil {
		//hawqcheck:ignore errdrop — read-side close on teardown
		_ = c.file.Close()
		c.file = nil
	}
}
