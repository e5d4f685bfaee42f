package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// groupMagicV2 marks a row group, which carries a per-column encoding
// byte and zone map ahead of the chunk lengths, so a scan can skip a
// group (or decide how to decode a chunk) from the header alone.
const groupMagicV2 = 0xB4

// parquetWriter writes the PAX-style format (§2.5): a single file of row
// groups. Each group stores every column's values as its own compressed
// chunk, so scans decompress only the columns they project while keeping
// all columns of a row set in one file — the Parquet trade-off versus CO.
//
// v2 group layout:
//
//	magic(1) | rowCount uvarint | ncols uvarint |
//	  per column: enc(1) | zoneLen uvarint | zone bytes |
//	  per column: chunkLen uvarint |
//	  per column: crc32(4) + compressed chunk bytes
//
// Like the CO writer, rows are buffered as datums so each flush can
// pick per-column page encodings and compute zone maps.
type parquetWriter struct {
	w      *hdfs.FileWriter
	codec  compress.Codec
	vals   [][]types.Datum
	size   int
	rows   int
	target int
	total  int64
	tuples int64
	// pageBuf is per-flush scratch for the encoded page payloads.
	pageBuf []byte
}

func newParquetWriter(fs *hdfs.FileSystem, codec compress.Codec, schema *types.Schema, sf catalog.SegFile, opts hdfs.CreateOptions) (*parquetWriter, error) {
	w, err := fs.CreateOrAppend(sf.Path, opts)
	if err != nil {
		return nil, err
	}
	return &parquetWriter{
		w:      w,
		codec:  codec,
		vals:   make([][]types.Datum, schema.Len()),
		target: DefaultBlockTarget,
		total:  sf.LogicalLen,
		tuples: sf.Tuples,
	}, nil
}

// Append implements Writer.
func (w *parquetWriter) Append(row types.Row) error {
	if len(row) != len(w.vals) {
		return fmt.Errorf("storage: parquet row width %d, want %d", len(row), len(w.vals))
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

// Flush implements Writer: writes one v2 row group.
func (w *parquetWriter) Flush() error {
	if w.rows == 0 {
		return nil
	}
	ncols := len(w.vals)
	encs := make([]byte, ncols)
	zones := make([][]byte, ncols)
	chunks := make([][]byte, ncols)
	for i, vals := range w.vals {
		var payload []byte
		encs[i], payload = encodePage(w.pageBuf[:0], vals)
		zones[i] = buildZone(nil, vals)
		chunks[i] = w.codec.Compress(nil, payload)
		w.pageBuf = payload[:0]
	}
	out := []byte{groupMagicV2}
	out = binary.AppendUvarint(out, uint64(w.rows))
	out = binary.AppendUvarint(out, uint64(ncols))
	for i := range w.vals {
		out = append(out, encs[i])
		out = binary.AppendUvarint(out, uint64(len(zones[i])))
		out = append(out, zones[i]...)
	}
	for _, c := range chunks {
		out = binary.AppendUvarint(out, uint64(len(c)))
	}
	for _, c := range chunks {
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(c))
		out = append(out, crc[:]...)
		out = append(out, c...)
	}
	if _, err := w.w.Write(out); err != nil {
		return err
	}
	w.total += int64(len(out))
	for i := range w.vals {
		w.vals[i] = w.vals[i][:0]
	}
	w.rows = 0
	w.size = 0
	return nil
}

// Close implements Writer.
func (w *parquetWriter) Close() error {
	if err := w.Flush(); err != nil {
		return errors.Join(err, w.w.Close())
	}
	return w.w.Close()
}

// Lens implements Writer.
func (w *parquetWriter) Lens() (int64, []int64) { return w.total, nil }

// Tuples implements Writer.
func (w *parquetWriter) Tuples() int64 { return w.tuples }

// parseGroup is the parseFn of Parquet files: one row group, a chunk
// per column. Every group of a file has the same column count.
func parseGroup(d []byte, off int64, dir *fileDir) error {
	short := truncated("storage: truncated group header")
	if len(d) == 0 {
		return short
	}
	if d[0] != groupMagicV2 {
		return fmt.Errorf("storage: bad row group magic 0x%02x at %d", d[0], off)
	}
	p := 1
	rowCount, n := binary.Uvarint(d[p:])
	if n <= 0 {
		return short
	}
	p += n
	ncols, n := binary.Uvarint(d[p:])
	if n <= 0 {
		return short
	}
	p += n
	// Every column costs at least a length byte and a checksum.
	if rowCount > math.MaxInt32 {
		return fmt.Errorf("storage: row group at %d claims %d rows", off, rowCount)
	}
	if ncols > uint64(len(d)) {
		return short
	}
	if dir.per != 0 && len(dir.blocks) > 0 && int(ncols) != dir.per {
		return fmt.Errorf("storage: row group at %d has %d columns, earlier groups %d", off, ncols, dir.per)
	}
	// Nothing is appended until the whole group has parsed: a truncated
	// parse is retried on a longer window.
	nchunks, nzones := len(dir.chunks), len(dir.zones)
	fail := func(err error) error {
		dir.chunks, dir.zones = dir.chunks[:nchunks], dir.zones[:nzones]
		return err
	}
	for i := 0; i < int(ncols); i++ {
		ch := chunkMeta{rawLen: -1, zoneOff: int32(len(dir.zones))}
		if p >= len(d) {
			return fail(truncated("storage: truncated column metadata"))
		}
		ch.enc = d[p]
		p++
		zoneLen, n := binary.Uvarint(d[p:])
		if n <= 0 {
			return fail(truncated("storage: truncated column metadata"))
		}
		p += n
		if uint64(len(d)-p) < zoneLen {
			return fail(truncated("storage: truncated zone map"))
		}
		ch.zoneLen = int32(zoneLen)
		dir.zones = append(dir.zones, d[p:p+int(zoneLen)]...)
		p += int(zoneLen)
		dir.chunks = append(dir.chunks, ch)
	}
	for i := nchunks; i < len(dir.chunks); i++ {
		l, n := binary.Uvarint(d[p:])
		if n <= 0 {
			return fail(truncated("storage: truncated chunk length"))
		}
		if l > uint64(len(d)) {
			return fail(truncated("storage: truncated row group body"))
		}
		dir.chunks[i].compLen = int32(l)
		p += n
	}
	end := off + int64(p)
	for i := nchunks; i < len(dir.chunks); i++ {
		dir.chunks[i].off = end
		end += 4 + int64(dir.chunks[i].compLen)
	}
	if end-off > int64(len(d)) {
		return fail(truncated("storage: truncated row group body"))
	}
	dir.per = int(ncols)
	dir.blocks = append(dir.blocks, blockMeta{off: off, end: end, rows: int32(rowCount)})
	return nil
}

// parquetLayout is the scan layout of a Parquet lane: one file of row
// groups, a single-column page per projected column and group.
func parquetLayout(sf catalog.SegFile, proj []int) *layout {
	l := &layout{paths: []string{sf.Path}, lens: []int64{sf.LogicalLen}, parse: parseGroup}
	l.project(proj, func(c int) colSrc { return colSrc{chunk: c} })
	return l
}
