package storage

import (
	"errors"
	"fmt"

	"hawq/internal/types"
)

// colWriter writes both columnar formats, whose lanes differ only in how
// the columns are split across files: CO keeps one column per file,
// Parquet every column in one file (PAX row groups, §2.5: a scan
// decompresses only the columns it projects, yet a row set stays in one
// file). Rows are buffered as datums so each flush can pick every
// column's page encoding (RLE, dictionary, flat) and zone map; a flush
// writes every file's group at the same row boundary, so group i of
// every CO column file covers the same rows — what the scanner relies on
// to zip the columns back into rows.
type colWriter struct {
	laneOut
	vals       [][]types.Datum
	size, rows int
	// page and zone are per-flush scratch, reused (with the group's) so a
	// steady append stream allocates only when a page outgrows them.
	page, zone []byte
}

// datumSizeEst approximates one datum's flat encoded size, used only to
// decide when a buffered page is full.
func datumSizeEst(d types.Datum) int { return 10 + len(d.S) }

// Append implements Writer.
func (w *colWriter) Append(row types.Row) error {
	if len(row) != len(w.vals) {
		return fmt.Errorf("storage: columnar row width %d, want %d", len(row), len(w.vals))
	}
	for i, d := range row {
		w.vals[i] = append(w.vals[i], d)
		w.size += datumSizeEst(d)
	}
	w.stats.Add(row)
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
		enc, page := encodePage(w.page[:0], vals)
		w.zone = buildZone(w.zone[:0], vals)
		w.group.add(w.codec, enc, w.zone, page)
		w.page, w.vals[i] = page[:0], vals[:0]
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
func (w *colWriter) Close() error {
	return errors.Join(w.Flush(), w.close())
}
