package pxf

import (
	"encoding/binary"
	"fmt"

	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// SeqConnector reads a SequenceFile-like binary record format: a stream
// of length-prefixed records, each holding one encoded row (§6 lists
// Sequence files among the built-in profiles). WriteSeqFile produces the
// format, mirroring the open Input/OutputFormats of §2.1 that let
// MapReduce jobs exchange data with HAWQ without SQL.
type SeqConnector struct {
	FS *hdfs.FileSystem
}

const seqMagic = 0x53454131 // "SEA1"

// Fragments implements Fragmenter (file granularity, like text).
func (c *SeqConnector) Fragments(req *Request) ([]Fragment, error) {
	return fileFragments(c.FS, "pxf sequence", req.Loc.Path)
}

// ReadFragment implements Accessor.
func (c *SeqConnector) ReadFragment(req *Request, f Fragment) (RecordReader, error) {
	data, err := c.FS.ReadFile(f.Source)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 || binary.BigEndian.Uint32(data) != seqMagic {
		return nil, fmt.Errorf("pxf sequence: %s is not a sequence file", f.Source)
	}
	return &seqReader{data: data, pos: 4}, nil
}

// seqReader serves the length-prefixed records of a sequence file's
// bytes.
type seqReader struct {
	data []byte
	pos  int
}

// Next implements RecordReader.
func (r *seqReader) Next() ([]byte, error) {
	if r.pos >= len(r.data) {
		return nil, nil
	}
	l, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return nil, fmt.Errorf("pxf sequence: truncated record length at %d", r.pos)
	}
	start := r.pos + n
	if uint64(len(r.data)-start) < l {
		return nil, fmt.Errorf("pxf sequence: truncated record at %d", start)
	}
	r.pos = start + int(l)
	return r.data[start:r.pos], nil
}

// Resolve implements Resolver.
func (c *SeqConnector) Resolve(req *Request, record []byte) (types.Row, error) {
	row, _, err := types.DecodeRow(record)
	if err != nil {
		return nil, fmt.Errorf("pxf sequence: %w", err)
	}
	if len(row) != req.Schema.Len() {
		return nil, fmt.Errorf("pxf sequence: record width %d, schema needs %d", len(row), req.Schema.Len())
	}
	return row, nil
}

// WriteSeqFile writes rows in the sequence format.
func WriteSeqFile(fs *hdfs.FileSystem, path string, rows []types.Row) error {
	buf := binary.BigEndian.AppendUint32(nil, seqMagic)
	var rec []byte
	for _, r := range rows {
		rec = types.EncodeRow(rec[:0], r)
		buf = binary.AppendUvarint(buf, uint64(len(rec)))
		buf = append(buf, rec...)
	}
	return fs.WriteFile(path, buf, hdfs.CreateOptions{})
}
