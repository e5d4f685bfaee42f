package storage

import (
	"errors"
	"fmt"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// coWriter writes the column-oriented format: each column is a separate
// HDFS file of blocks holding encoded datums. All column files flush at
// the same row boundaries, so the i'th block of every column covers the
// same rows — the property the scanner relies on to zip columns back
// into rows.
//
// Rows are buffered as datums (not pre-encoded bytes) so each flush can
// pick a per-page lightweight encoding (RLE, dictionary, flat) and
// compute the page's zone map before framing the v2 block.
type coWriter struct {
	writers []*hdfs.FileWriter
	codec   compress.Codec
	vals    [][]types.Datum
	size    int
	rows    int
	target  int
	lens    []int64
	tuples  int64
	// pageBuf, zoneBuf and blockBuf are per-flush scratch, reused so a
	// steady append stream allocates only when a page outgrows them.
	pageBuf  []byte
	zoneBuf  []byte
	blockBuf []byte
}

func newCOWriter(fs *hdfs.FileSystem, codec compress.Codec, schema *types.Schema, sf catalog.SegFile, opts hdfs.CreateOptions) (*coWriter, error) {
	n := schema.Len()
	w := &coWriter{
		codec:  codec,
		vals:   make([][]types.Datum, n),
		target: DefaultBlockTarget,
		lens:   make([]int64, n),
		tuples: sf.Tuples,
	}
	copy(w.lens, sf.ColLens)
	for i := 0; i < n; i++ {
		fw, err := fs.CreateOrAppend(ColFilePath(sf.Path, i), opts)
		if err != nil {
			for _, open := range w.writers {
				err = errors.Join(err, open.Close())
			}
			return nil, err
		}
		w.writers = append(w.writers, fw)
	}
	return w, nil
}

// datumSizeEst approximates one datum's flat encoded size, used only to
// decide when a buffered page is full.
func datumSizeEst(d types.Datum) int { return 10 + len(d.S) }

// Append implements Writer.
func (w *coWriter) Append(row types.Row) error {
	if len(row) != len(w.vals) {
		return fmt.Errorf("storage: CO row width %d, want %d", len(row), len(w.vals))
	}
	for i, d := range row {
		w.vals[i] = append(w.vals[i], d)
		w.size += datumSizeEst(d)
	}
	w.rows++
	w.tuples++
	if w.size >= w.target*len(w.vals) {
		return w.Flush()
	}
	return nil
}

// Flush implements Writer: every column emits one v2 block (page
// encoding + zone map + compressed payload) covering the same rows.
func (w *coWriter) Flush() error {
	if w.rows == 0 {
		return nil
	}
	for i, vals := range w.vals {
		enc, payload := encodePage(w.pageBuf[:0], vals)
		zone := buildZone(w.zoneBuf[:0], vals)
		block := appendBlockV2(w.blockBuf[:0], w.codec, w.rows, enc, zone, payload)
		if _, err := w.writers[i].Write(block); err != nil {
			return err
		}
		w.lens[i] += int64(len(block))
		w.pageBuf, w.zoneBuf, w.blockBuf = payload[:0], zone[:0], block[:0]
		w.vals[i] = vals[:0]
	}
	w.rows = 0
	w.size = 0
	return nil
}

// Close implements Writer.
func (w *coWriter) Close() error {
	err := w.Flush()
	for _, fw := range w.writers {
		if cerr := fw.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Lens implements Writer: the total is the sum of column lengths.
func (w *coWriter) Lens() (int64, []int64) {
	var total int64
	out := make([]int64, len(w.lens))
	copy(out, w.lens)
	for _, l := range w.lens {
		total += l
	}
	return total, out
}

// Tuples implements Writer.
func (w *coWriter) Tuples() int64 { return w.tuples }

// coLayout is the scan layout of a CO lane: the projected columns'
// files, walked in lockstep, one single-column page per block. A
// zero-column scan (COUNT(*)) walks only the smallest column file —
// every one of them carries the row counts — and reads no payload.
func coLayout(sf catalog.SegFile, proj []int) (*layout, error) {
	l := &layout{parse: parseCOBlock}
	if len(sf.ColLens) == 0 {
		return l, nil // never committed
	}
	add := func(c int) int {
		l.paths = append(l.paths, ColFilePath(sf.Path, c))
		l.lens = append(l.lens, sf.ColLens[c])
		return len(l.paths) - 1
	}
	if len(proj) == 0 {
		c := 0
		for i, n := range sf.ColLens {
			if n < sf.ColLens[c] {
				c = i
			}
		}
		add(c)
		return l, nil
	}
	for _, c := range proj {
		if c >= len(sf.ColLens) {
			return nil, fmt.Errorf("storage: CO projection column %d out of range", c)
		}
	}
	l.project(proj, func(c int) colSrc { return colSrc{file: add(c)} })
	return l, nil
}
