package types

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hawq/internal/obs"
)

// DefaultBatchRows is the row count batch producers aim for per batch:
// enough to amortize per-batch overheads (channel operations, interface
// calls, header decoding) without holding more than a few hundred KB of
// datums per pipeline stage.
const DefaultBatchRows = 1024

// Batch is a batch of fixed-width rows backed by one shared Datum arena.
// It is the unit of the executor's vectorized fast path: producers fill a
// batch a block at a time, consumers iterate its rows without allocating,
// and the arena is recycled through a sync.Pool (GetBatch/PutBatch) so
// the steady-state scan→filter→project→motion pipeline performs no
// per-row allocations.
//
// Ownership rules:
//
//   - Rows returned by Row are views into the arena. They are valid only
//     until the batch is next Reset, extended past its capacity, or
//     returned to the pool; retain a row across those events with
//     Row.Clone. Datums copied out of a row (by value) are always safe.
//   - A batch may be handed off (e.g. over a channel); the receiver then
//     owns it and is responsible for PutBatch.
type Batch struct {
	width int
	n     int
	arena []Datum
	// pooled marks a batch currently sitting in the pool; PutBatch uses
	// it to panic on a double return, which would otherwise hand the
	// same arena to two owners and corrupt rows at a distance.
	pooled bool
}

// Reset clears the batch to zero rows of the given width, retaining the
// arena's capacity for reuse.
func (b *Batch) Reset(width int) {
	b.width = width
	b.n = 0
	b.arena = b.arena[:0]
}

// Width returns the number of columns per row.
func (b *Batch) Width() int { return b.width }

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Row returns row i as a view into the arena; see the ownership rules on
// Batch for its lifetime.
func (b *Batch) Row(i int) Row {
	if b.width == 0 {
		return Row{}
	}
	return Row(b.arena[i*b.width : (i+1)*b.width])
}

// AddRow appends one row initialized to NULL and returns it for the
// caller to fill. The returned view follows the Row lifetime rules.
func (b *Batch) AddRow() Row {
	b.n++
	if b.width == 0 {
		return Row{}
	}
	old := len(b.arena)
	if old+b.width <= cap(b.arena) {
		b.arena = b.arena[:old+b.width]
		row := b.arena[old:]
		for i := range row {
			row[i] = Datum{}
		}
		return Row(row)
	}
	for i := 0; i < b.width; i++ {
		b.arena = append(b.arena, Datum{})
	}
	return Row(b.arena[old:])
}

// Extend appends n rows initialized to NULL (used by columnar readers
// that fill the batch column by column).
func (b *Batch) Extend(n int) {
	old := len(b.arena)
	b.extendRaw(n)
	clear(b.arena[old:])
}

// extendRaw appends n rows without initializing them when the arena has
// room: for a caller that goes on to write every cell itself.
func (b *Batch) extendRaw(n int) {
	b.n += n
	need := len(b.arena) + n*b.width
	if need <= cap(b.arena) {
		b.arena = b.arena[:need]
		return
	}
	grown := make([]Datum, need, max(need, 2*cap(b.arena)))
	copy(grown, b.arena)
	b.arena = grown
}

// AppendRow appends a copy of r. The first row appended to an empty
// zero-width batch fixes the batch width; afterwards every row must
// match it (a mismatch indicates a planner bug and panics).
func (b *Batch) AppendRow(r Row) { b.AppendConcat(r, nil) }

// AppendConcat appends one row holding a copy of l followed by a copy of
// r — a join's output row, built in the arena rather than in a slice of
// its own. Width rules are AppendRow's, over len(l)+len(r).
func (b *Batch) AppendConcat(l, r Row) {
	w := len(l) + len(r)
	if b.n == 0 && b.width == 0 {
		b.width = w
	}
	if w != b.width {
		panic(fmt.Sprintf("types: appending %d-column row to %d-column batch", w, b.width))
	}
	b.extendRaw(1)
	row := b.arena[len(b.arena)-w:]
	copy(row, l)
	copy(row[len(l):], r)
}

// MoveRow copies row src over row dst (dst <= src), the primitive batch
// filters use to compact surviving rows in place.
func (b *Batch) MoveRow(dst, src int) {
	if b.width == 0 || dst == src {
		return
	}
	copy(b.arena[dst*b.width:(dst+1)*b.width], b.arena[src*b.width:(src+1)*b.width])
}

// Truncate shrinks the batch to its first n rows.
func (b *Batch) Truncate(n int) {
	b.n = n
	b.arena = b.arena[:n*b.width]
}

// Slice keeps rows [lo, hi) and drops the rest, moving the kept rows to
// the front of the arena (LIMIT/OFFSET cutting inside a batch).
func (b *Batch) Slice(lo, hi int) {
	if lo > 0 {
		copy(b.arena, b.arena[lo*b.width:hi*b.width])
	}
	b.n = hi - lo
	b.arena = b.arena[:b.n*b.width]
}

// batchPool recycles batches (and their arenas) across pipeline stages.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// batchGets and batchPuts count pool traffic; their difference is the
// number of batches currently checked out. The chaos harness asserts it
// returns to its baseline after every query, catching strand leaks on
// cancellation and error paths.
var batchGets, batchPuts atomic.Int64

// PoolStats reports cumulative GetBatch and PutBatch counts. gets-puts
// is the number of batches currently held by callers.
func PoolStats() (gets, puts int64) {
	return batchGets.Load(), batchPuts.Load()
}

// PoolInUse returns the number of batches currently checked out of the
// pool (gets − puts). It is registered as the types.batch_in_use gauge,
// and the chaos harness asserts it returns to its baseline after every
// step — a non-zero residue is a strand leak on a cancel or error path.
func PoolInUse() int64 {
	return batchGets.Load() - batchPuts.Load()
}

// init publishes the pool counters into the process-wide metrics
// registry, so SHOW metrics exposes batch-arena traffic and leaks.
func init() {
	obs.RegisterGauge("types.batch_gets", func() int64 { return batchGets.Load() })
	obs.RegisterGauge("types.batch_puts", func() int64 { return batchPuts.Load() })
	obs.RegisterGauge("types.batch_in_use", PoolInUse)
}

// GetBatch returns a pooled batch reset to the given width.
func GetBatch(width int) *Batch {
	batchGets.Add(1)
	b := batchPool.Get().(*Batch)
	b.pooled = false
	b.Reset(width)
	return b
}

// PutBatch returns a batch to the pool for reuse. The caller must not
// touch the batch (or any row view into it) afterwards; returning the
// same batch twice panics rather than silently aliasing its arena to
// two future owners.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	if b.pooled {
		panic("types: PutBatch called twice on the same batch")
	}
	b.pooled = true
	batchPuts.Add(1)
	batchPool.Put(b)
}

// EncodeBatch appends the wire encoding of every row in b to buf. The
// format is a plain concatenation of EncodeRow frames, so the result is
// indistinguishable from rows encoded one at a time — batch and row
// senders interoperate on the same motion stream.
func EncodeBatch(buf []byte, b *Batch) []byte {
	for i := 0; i < b.n; i++ {
		buf = EncodeRow(buf, b.Row(i))
	}
	return buf
}

// DecodeBatch decodes every row frame in buf into b, resetting b first.
// All frames must share one width (motion streams are homogeneous). It
// returns the number of bytes consumed and never panics on truncated or
// corrupt input.
//
// The string cells of the batch are slices of one copy of buf, made when
// the first of them is met: a payload of numbers copies nothing, and a
// payload of strings costs one allocation, not one per cell. A string
// that outlives the batch therefore keeps that whole copy alive — a
// motion payload or a workfile frame — which is right for whoever keeps
// every row and wrong for whoever keeps a few of many (Datum.Detach).
func DecodeBatch(buf []byte, b *Batch) (int, error) {
	b.Reset(0)
	var strs string // the copy of buf string cells are cut from
	pos := 0
	for pos < len(buf) {
		n, c, err := rowHeader(buf[pos:])
		if err != nil {
			return 0, err
		}
		if b.n == 0 {
			b.Reset(n)
		} else if n != b.width {
			return 0, fmt.Errorf("types: batch width changed from %d to %d", b.width, n)
		}
		pos += c
		row := b.AddRow()
		for j := 0; j < n; j++ {
			k, scale, i, f, body, sz, err := parseDatum(buf[pos:])
			if err != nil {
				return 0, fmt.Errorf("row %d column %d: %w", b.n-1, j, err)
			}
			pos += sz
			row[j] = Datum{K: k, Scale: scale, I: i, F: f}
			if len(body) > 0 {
				if strs == "" {
					strs = string(buf)
				}
				// A string's bytes are the tail of its encoding.
				row[j].S = strs[pos-len(body) : pos]
			}
		}
	}
	return pos, nil
}
