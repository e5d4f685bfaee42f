package storage

import (
	"fmt"

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
	vals       [][]types.Datum
	size, rows int
	// pass is per-flush scratch, reused with the group's from flush to
	// flush.
	pass pagePass
}

// Append implements Writer.
func (w *colWriter) Append(row types.Row) error {
	if len(row) != len(w.vals) {
		return fmt.Errorf("storage: columnar row width %d, want %d", len(row), len(w.vals))
	}
	for i, d := range row {
		w.vals[i] = append(w.vals[i], d)
		w.size += 10 + len(d.S) // about d's flat encoded size
	}
	w.rows++
	w.tuples++
	if w.size >= DefaultBlockTarget*len(w.vals) {
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
	for i, vals := range w.vals {
		w.group.add(w.codec, w.pass.encode(vals), w.pass.zone, w.pass.raw)
		w.stats.AddPage(i, &w.pass.PageStats)
		w.vals[i] = vals[:0]
		var err error
		if w.co {
			err = w.write(i, w.rows)
		} else if i == len(w.vals)-1 {
			err = w.write(0, w.rows)
		}
		if err != nil {
			return err
		}
	}
	w.rows, w.size = 0, 0
	return nil
}

// Close implements Writer.
func (w *colWriter) Close() error { return w.close(w.Flush()) }
