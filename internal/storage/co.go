package storage

import (
	"errors"
	"fmt"
	"io"

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

// scanCOVec is the CO scan core: it walks the projected column files'
// aligned blocks in lockstep, consults every page's zone map against
// the pushed-down predicates before touching the payload, and hands
// surviving pages to fn as still-encoded vectors. Both the batch and
// row scan paths are wrappers over it.
func scanCOVec(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, proj []int, preds []ZonePred, st *ScanStats, fn func(*types.VecBatch) error) error {
	if len(sf.ColLens) == 0 {
		return nil // never committed
	}
	if len(proj) == 0 {
		// Zero-column scan (COUNT(*)): every column file carries the row
		// counts, so walk the block headers of the smallest one and emit
		// batches of empty rows — no page is checksummed or decompressed.
		c := 0
		for i, l := range sf.ColLens {
			if l < sf.ColLens[c] {
				c = i
			}
		}
		data, err := readRegion(fs, ColFilePath(sf.Path, c), sf.ColLens[c])
		if err != nil {
			return err
		}
		it := &blockIter{data: data}
		for {
			h, err := it.nextHeader()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			vb := types.GetVecBatch(0)
			vb.SetLen(h.rows)
			if err := fn(vb); err != nil {
				return err
			}
		}
	}
	iters := make([]*blockIter, len(proj))
	for j, c := range proj {
		if c >= len(sf.ColLens) {
			return fmt.Errorf("storage: CO projection column %d out of range", c)
		}
		data, err := readRegion(fs, ColFilePath(sf.Path, c), sf.ColLens[c])
		if err != nil {
			return err
		}
		iters[j] = &blockIter{data: data}
	}
	hdrs := make([]pageHdr, len(proj))
	for {
		// Advance all columns to their next aligned block header.
		rc := -1
		for j, it := range iters {
			h, err := it.nextHeader()
			if err == io.EOF {
				if j == 0 {
					return nil
				}
				return fmt.Errorf("storage: CO column files out of sync (early EOF)")
			}
			if err != nil {
				return err
			}
			if rc == -1 {
				rc = h.rows
			} else if h.rows != rc {
				return fmt.Errorf("storage: CO block row counts diverge (%d vs %d)", rc, h.rows)
			}
			hdrs[j] = h
		}
		if rc <= 0 {
			continue
		}
		// One impossible conjunct against any column's zone map rules
		// out the whole aligned page set before any checksum work.
		skip := false
		for j := range hdrs {
			if !pageMayMatch(hdrs[j].zone, j, preds) {
				skip = true
				break
			}
		}
		if skip {
			st.notePageSkipped()
			continue
		}
		vb := types.GetVecBatch(len(proj))
		vb.SetLen(rc)
		for j := range hdrs {
			raw, err := hdrs[j].payload(codec)
			if err != nil {
				types.PutVecBatch(vb)
				return err
			}
			if err := decodePage(hdrs[j].enc, raw, rc, &vb.Cols[j]); err != nil {
				types.PutVecBatch(vb)
				return err
			}
		}
		if err := fn(vb); err != nil {
			return err
		}
	}
}

// scanCOBatches reads only the projected column files and materializes
// each aligned block set into one batch arena. It accepts both v1 and
// v2 column files (the vec core treats a v1 block as one flat page).
func scanCOBatches(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, proj []int, fn func(*types.Batch) error) error {
	return scanCOVec(fs, codec, sf, proj, nil, nil, func(vb *types.VecBatch) error {
		b := types.GetBatch(0)
		if err := vb.Materialize(b); err != nil {
			types.PutBatch(b)
			types.PutVecBatch(vb)
			return err
		}
		types.PutVecBatch(vb)
		return fn(b)
	})
}

// scanCO reads only the projected column files and zips their block
// streams back into rows.
func scanCO(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, proj []int, fn func(types.Row) error) error {
	cols := make([][]types.Datum, len(proj))
	return scanCOVec(fs, codec, sf, proj, nil, nil, func(vb *types.VecBatch) error {
		n := vb.Len()
		for j := range vb.Cols {
			var err error
			cols[j], err = vb.Cols[j].Decode(cols[j][:0])
			if err != nil {
				types.PutVecBatch(vb)
				return err
			}
		}
		types.PutVecBatch(vb)
		for i := 0; i < n; i++ {
			out := make(types.Row, len(proj))
			for j := range cols {
				out[j] = cols[j][i]
			}
			if err := fn(out); err != nil {
				return err
			}
		}
		return nil
	})
}
