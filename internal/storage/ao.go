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

// aoWriter writes the row-oriented append-only format: a sequence of
// blocks, each holding whole encoded rows.
type aoWriter struct {
	w      *hdfs.FileWriter
	codec  compress.Codec
	buf    []byte
	rows   int
	target int
	total  int64
	tuples int64
}

func newAOWriter(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, opts hdfs.CreateOptions) (*aoWriter, error) {
	w, err := fs.CreateOrAppend(sf.Path, opts)
	if err != nil {
		return nil, err
	}
	return &aoWriter{
		w:      w,
		codec:  codec,
		target: DefaultBlockTarget,
		total:  sf.LogicalLen,
		tuples: sf.Tuples,
	}, nil
}

// Append implements Writer.
func (w *aoWriter) Append(row types.Row) error {
	w.buf = types.EncodeRow(w.buf, row)
	w.rows++
	w.tuples++
	if len(w.buf) >= w.target {
		return w.Flush()
	}
	return nil
}

// Flush implements Writer.
func (w *aoWriter) Flush() error {
	if w.rows == 0 {
		return nil
	}
	block := appendBlock(nil, w.codec, w.rows, w.buf)
	if _, err := w.w.Write(block); err != nil {
		return err
	}
	w.total += int64(len(block))
	w.buf = w.buf[:0]
	w.rows = 0
	return nil
}

// Close implements Writer.
func (w *aoWriter) Close() error {
	if err := w.Flush(); err != nil {
		return errors.Join(err, w.w.Close())
	}
	return w.w.Close()
}

// Lens implements Writer.
func (w *aoWriter) Lens() (int64, []int64) { return w.total, nil }

// Tuples implements Writer.
func (w *aoWriter) Tuples() int64 { return w.tuples }

// aoProj inverts a projection for the one-pass row walk of the AO
// readers: slot[c] is the output position that receives stored column c,
// or -1 for a column the walk steps over undecoded. A column projected
// more than once is decoded into its first position and copied to the
// others afterwards (dups holds those {to, from} output positions).
type aoProj struct {
	slot []int
	dups [][2]int
}

func newAOProj(proj []int) aoProj {
	var p aoProj
	for j, c := range proj {
		for len(p.slot) <= c {
			p.slot = append(p.slot, -1)
		}
		if first := p.slot[c]; first >= 0 {
			p.dups = append(p.dups, [2]int{j, first})
		} else {
			p.slot[c] = j
		}
	}
	return p
}

// decode fills out (one slot per projected column) from the encoded row
// at the head of buf and returns the bytes the row occupies.
func (p aoProj) decode(buf []byte, out types.Row) (int, error) {
	n, ncols, err := types.DecodeRowCols(buf, p.slot, out)
	if err != nil {
		return 0, err
	}
	if ncols < len(p.slot) {
		return 0, fmt.Errorf("storage: AO projection column %d out of range (row width %d)", len(p.slot)-1, ncols)
	}
	for _, d := range p.dups {
		out[d[0]] = out[d[1]]
	}
	return n, nil
}

// scanAOBatches decodes each AO block's rows into one batch, walking
// every row once: projected columns decode straight into the batch
// arena, the rest are skipped without materializing. A zero-column scan
// (COUNT(*)) takes the row counts from the block headers and does not
// decompress a block, but checksums every one like any other AO scan: a
// corrupted file fails COUNT(*) too.
func scanAOBatches(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, proj []int, fn func(*types.Batch) error) error {
	data, err := readRegion(fs, sf.Path, sf.LogicalLen)
	if err != nil {
		return err
	}
	it := &blockIter{data: data}
	ap := newAOProj(proj)
	for {
		h, err := it.nextHeader()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		b := types.GetBatch(len(proj))
		if len(proj) == 0 {
			if err := h.verify(); err != nil {
				types.PutBatch(b)
				return err
			}
			b.Extend(h.rows)
		} else {
			raw, err := h.payload(codec)
			if err != nil {
				types.PutBatch(b)
				return err
			}
			pos := 0
			for i := 0; i < h.rows; i++ {
				n, err := ap.decode(raw[pos:], b.AddRow())
				if err != nil {
					types.PutBatch(b)
					return err
				}
				pos += n
			}
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// scanAO iterates the committed rows of an AO segment file, decoding
// only the projected columns of each.
func scanAO(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, proj []int, fn func(types.Row) error) error {
	data, err := readRegion(fs, sf.Path, sf.LogicalLen)
	if err != nil {
		return err
	}
	it := &blockIter{data: data}
	ap := newAOProj(proj)
	for {
		rowCount, raw, err := it.next(codec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		pos := 0
		for i := 0; i < rowCount; i++ {
			out := make(types.Row, len(proj))
			n, err := ap.decode(raw[pos:], out)
			if err != nil {
				return err
			}
			pos += n
			if err := fn(out); err != nil {
				return err
			}
		}
	}
}
