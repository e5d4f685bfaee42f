package executor

import (
	"fmt"

	"hawq/internal/hdfs"
	"hawq/internal/plan"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// insertOp appends its input rows to this segment's lane file of the
// target table (§5.4 swimming lanes: the master assigned the lane, so no
// two concurrent writers share a file). For partitioned tables each row
// is routed to its partition's lane. The lanes' lengths and statistics
// are piggybacked back to the master as SegFileUpdates; the master turns
// them into MVCC catalog updates, so the rows only become visible when
// the transaction commits, and an abort truncates the files back (§5.3).
type insertOp struct {
	ctx  *Context
	node *plan.Insert
	in   Operator

	writers map[int]storage.Writer // target index -> open writer
	count   int64
	done    bool
}

func newInsertOp(ctx *Context, node *plan.Insert) (Operator, error) {
	in, err := Build(ctx, node.Input)
	if err != nil {
		return nil, err
	}
	return &insertOp{ctx: ctx, node: node, in: in}, nil
}

// Open implements Operator.
func (i *insertOp) Open() error {
	i.writers = make(map[int]storage.Writer)
	return i.in.Open()
}

// writerFor lazily opens the lane writer of one target.
func (i *insertOp) writerFor(ti int) (storage.Writer, error) {
	if w, ok := i.writers[ti]; ok {
		return w, nil
	}
	t := i.node.Targets[ti]
	sf, ok := t.Files[i.ctx.Segment]
	if !ok {
		return nil, fmt.Errorf("executor: no lane file assigned for %s on segment %d", t.Table.Name, i.ctx.Segment)
	}
	w, err := storage.NewWriter(i.ctx.FS, t.Table.Storage, t.Table.Schema, sf,
		hdfs.CreateOptions{PreferredHost: i.ctx.LocalHost, Writer: fmt.Sprintf("seg%d-q%d", i.ctx.Segment, i.ctx.Query)})
	if err != nil {
		return nil, err
	}
	i.writers[ti] = w
	return w, nil
}

// NextBatch implements Operator: consumes all input, then emits one
// count row.
func (i *insertOp) NextBatch(b *types.Batch) (bool, error) {
	if i.done {
		return false, nil
	}
	schema := i.node.Targets[0].Table.Schema
	err := drainRows(i.ctx, i.in, func(row types.Row) error {
		if len(row) != schema.Len() {
			return fmt.Errorf("executor: insert row width %d, table %s has %d columns",
				len(row), i.node.Targets[0].Table.Name, schema.Len())
		}
		for c, col := range schema.Columns {
			if col.NotNull && row[c].IsNull() {
				return fmt.Errorf("executor: null value in column %q violates not-null constraint", col.Name)
			}
		}
		ti, err := i.node.RouteTarget(row)
		if err != nil {
			return err
		}
		w, err := i.writerFor(ti)
		if err != nil {
			return err
		}
		if err := w.Append(row); err != nil {
			return err
		}
		i.count++
		return nil
	})
	if err != nil {
		return false, err
	}
	// Close writers and piggyback the new physical state (§3.1).
	for ti, w := range i.writers {
		if err := w.Close(); err != nil {
			return false, err
		}
		sf := i.node.Targets[ti].Files[i.ctx.Segment]
		sf.LogicalLen, sf.ColLens = w.Lens()
		sf.Tuples = w.Tuples()
		sf.Stats = w.Stats()
		if i.ctx.OnSegFileUpdate != nil {
			i.ctx.OnSegFileUpdate(SegFileUpdate{File: sf})
		}
	}
	i.writers = nil
	i.done = true
	b.Reset(1)
	b.AddRow()[0] = types.NewInt64(i.count)
	return true, nil
}

// Close implements Operator.
func (i *insertOp) Close() error {
	err := i.in.Close()
	for _, w := range i.writers {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	i.writers = nil
	return err
}
