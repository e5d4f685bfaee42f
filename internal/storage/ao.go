package storage

import (
	"errors"

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

// aoLayout is the scan layout of an AO lane: one file of row-major
// blocks, each transposed into a flat vector per projected column.
func aoLayout(sf catalog.SegFile, proj []int) *layout {
	l := &layout{paths: []string{sf.Path}, lens: []int64{sf.LogicalLen}, parse: parseAOBlock, rowMajor: true}
	l.project(proj, func(c int) colSrc { return colSrc{col: c} })
	return l
}
