package storage

import "hawq/internal/types"

// aoWriter writes the row-oriented append-only format: one file of
// one-chunk groups, the chunk holding whole encoded rows (pageEncRows).
type aoWriter struct {
	laneOut
	buf  []byte
	rows int
}

// Append implements Writer.
func (w *aoWriter) Append(row types.Row) error {
	w.buf = types.EncodeRow(w.buf, row)
	w.stats.Add(row)
	w.rows++
	w.tuples++
	if len(w.buf) >= DefaultBlockTarget {
		return w.Flush()
	}
	return nil
}

// Flush implements Writer.
func (w *aoWriter) Flush() error {
	if w.rows == 0 {
		return nil
	}
	w.group.add(w.codec, pageEncRows, nil, w.buf)
	if err := w.write(0, w.rows); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	w.rows = 0
	return nil
}

// Close implements Writer.
func (w *aoWriter) Close() error { return w.close(w.Flush()) }
