package executor

import (
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

// batchCursor serves an operator's output one row at a time, for a
// consumer that genuinely probes row-wise (the join probe sides). A row
// it returns is a view into the cursor's batch, valid until the next
// call crosses a batch boundary.
type batchCursor struct {
	ctx *Context
	src Operator
	b   *types.Batch
	idx int
}

// next returns the next row of src, refilling the cursor's batch as
// needed.
func (c *batchCursor) next() (types.Row, bool, error) {
	for {
		if c.b != nil && c.idx < c.b.Len() {
			row := c.b.Row(c.idx)
			c.idx++
			return row, true, nil
		}
		if err := c.ctx.canceled(); err != nil {
			return nil, false, err
		}
		if c.b == nil {
			c.b = types.GetBatch(0)
		}
		ok, err := c.src.NextBatch(c.b)
		c.idx = 0
		if err != nil || !ok {
			c.b.Reset(0) // whatever src left there is not output
			return nil, false, err
		}
	}
}

// release returns the cursor's batch to the pool.
func (c *batchCursor) release() {
	if c.b != nil {
		types.PutBatch(c.b)
		c.b = nil
	}
}
