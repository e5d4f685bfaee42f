package storage

import (
	"fmt"
	"slices"

	"hawq/internal/types"
)

// colWriter writes both columnar formats, whose lanes differ only in how
// the columns are split across files: CO keeps one column per file,
// Parquet every column in one file (PAX row groups, §2.5: a scan
// decompresses only the columns it projects, yet a row set stays in one
// file). Rows are buffered as datums so each flush can pick every
// column's page encoding (RLE, dictionary, flat), zone map and share of
// the lane's statistics in one pass over its values; a flush writes
// every file's group at the same row boundary, so group i of
// every CO column file covers the same rows — what the scanner relies on
// to zip the columns back into rows.
type colWriter struct {
	laneOut
	ncols int
	// chunks hold the buffered rows' datums, row after row, each twice
	// the one before, so a growing buffer is never copied; a flush
	// gathers each column into col and keeps the last chunk, emptied.
	chunks     [][]types.Datum
	size, rows int
	col        []types.Datum
	// pass is per-flush scratch, reused with the group's from flush to
	// flush.
	pass pagePass
}

// Append implements Writer.
func (w *colWriter) Append(row types.Row) error {
	if len(row) != w.ncols {
		return fmt.Errorf("storage: columnar row width %d, want %d", len(row), w.ncols)
	}
	last := len(w.chunks) - 1
	if c := w.chunks[last]; len(c) == cap(c) {
		w.chunks, last = append(w.chunks, make([]types.Datum, 0, 2*cap(c))), last+1
	}
	w.chunks[last] = append(w.chunks[last], row...)
	for _, d := range row {
		w.size += 10 + len(d.S) // about d's flat encoded size
	}
	w.rows++
	w.tuples++
	if w.size >= DefaultBlockTarget*w.ncols {
		return w.Flush()
	}
	return nil
}

// Flush implements Writer: every column becomes one chunk, and every
// file one group of the chunks of the columns it holds.
func (w *colWriter) Flush() error {
	if w.rows == 0 {
		return nil
	}
	for i := range w.ncols {
		col := slices.Grow(w.col[:0], w.rows)
		for _, c := range w.chunks {
			for at := i; at < len(c); at += w.ncols {
				col = append(col, c[at])
			}
		}
		w.col = col
		w.group.add(w.codec, w.pass.encode(col), w.pass.zone, w.pass.raw)
		w.stats.AddPage(i, &w.pass.PageStats)
		var err error
		if w.co {
			err = w.write(i, w.rows)
		} else if i == w.ncols-1 {
			err = w.write(0, w.rows)
		}
		if err != nil {
			return err
		}
	}
	w.chunks = append(w.chunks[:0], w.chunks[len(w.chunks)-1][:0])
	w.rows, w.size = 0, 0
	return nil
}

// Close implements Writer.
func (w *colWriter) Close() error { return w.close(w.Flush()) }
