// Package storage implements HAWQ's read-optimized table formats on HDFS
// (§2.5): AO (row-oriented append-only), CO (column-oriented, one file
// per column) and a Parquet-like PAX format storing column chunks inside
// row groups of a single file. All three compress blocks with any codec
// from internal/compress and checksum every block.
//
// Writers append only; visibility is enforced by the caller scanning no
// further than the committed logical length recorded in the catalog
// (§5). Writers always flush whole blocks, so a committed logical length
// always falls on a block boundary, and garbage from an aborted insert
// beyond it is skipped entirely (and truncated before the next append).
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/hdfs"
	"hawq/internal/obs"
	"hawq/internal/types"
)

// DefaultBlockTarget is the uncompressed block size writers aim for.
const DefaultBlockTarget = 64 * 1024

// blockMagic marks a v1 block: flat datum payload, no page metadata.
// Readers still accept it so files written before encodings and zone
// maps keep scanning.
const blockMagic = 0xA7

// blockMagicV2 marks a v2 block, whose header additionally carries the
// page encoding byte and the zone-map bytes. CO writers emit only v2
// blocks; AO blocks stay v1 (a row-oriented payload has no per-column
// encoding to describe).
const blockMagicV2 = 0xA8

// pagesSkipped counts pages (CO aligned block sets, Parquet row groups)
// whose zone maps proved no row could match a pushed-down predicate, so
// they were never checksummed, decompressed, or decoded.
var pagesSkipped = obs.GetCounter("storage.pages_skipped")

// ScanStats accumulates per-scan counters the executor surfaces in
// EXPLAIN ANALYZE. A nil *ScanStats is accepted everywhere and counts
// nothing.
type ScanStats struct {
	// PagesSkipped counts logical pages skipped via zone maps.
	PagesSkipped int64
}

// notePageSkipped records one logical page pruned by a zone map.
func (st *ScanStats) notePageSkipped() {
	pagesSkipped.Inc()
	if st != nil {
		st.PagesSkipped++
	}
}

// Writer appends rows to one segment file (lane) of a table.
type Writer interface {
	// Append buffers one row.
	Append(row types.Row) error
	// Flush writes buffered rows as a block.
	Flush() error
	// Close flushes and closes the underlying HDFS files.
	Close() error
	// Lens returns the file length(s) after the last flush: the total
	// length and, for CO, per-column lengths. These become the committed
	// logical lengths at transaction commit.
	Lens() (total int64, colLens []int64)
	// Tuples returns the number of rows appended so far plus the count
	// existing at open.
	Tuples() int64
}

// NewWriter opens a writer for the given storage spec, appending to the
// segment file at sf.Path (creating it if absent). The file must have
// been truncated to its committed logical length beforehand; the writer
// trusts physical length == logical length.
func NewWriter(fs *hdfs.FileSystem, spec catalog.StorageSpec, schema *types.Schema, sf catalog.SegFile, opts hdfs.CreateOptions) (Writer, error) {
	codec, err := compress.Lookup(spec.Codec)
	if err != nil {
		return nil, err
	}
	switch spec.Orientation {
	case catalog.OrientRow, "":
		return newAOWriter(fs, codec, sf, opts)
	case catalog.OrientColumn:
		return newCOWriter(fs, codec, schema, sf, opts)
	case catalog.OrientParquet:
		return newParquetWriter(fs, codec, schema, sf, opts)
	default:
		return nil, fmt.Errorf("storage: unknown orientation %q", spec.Orientation)
	}
}

// Scan reads the committed contents of one segment file, calling fn for
// every row. proj selects the output columns; emitted rows contain
// exactly the projected columns in proj order. A nil or empty proj means
// no columns — rows of width zero, one per stored row — never "all":
// a scan that wants every column passes schema.AllCols(). Scanning is
// bounded by the logical lengths in sf, so bytes appended by uncommitted
// or aborted transactions are never surfaced.
func Scan(fs *hdfs.FileSystem, spec catalog.StorageSpec, schema *types.Schema, sf catalog.SegFile, proj []int, fn func(types.Row) error) error {
	codec, err := compress.Lookup(spec.Codec)
	if err != nil {
		return err
	}
	switch spec.Orientation {
	case catalog.OrientRow, "":
		return scanAO(fs, codec, sf, proj, fn)
	case catalog.OrientColumn:
		return scanCO(fs, codec, sf, proj, fn)
	case catalog.OrientParquet:
		return scanParquet(fs, codec, schema, sf, proj, fn)
	default:
		return fmt.Errorf("storage: unknown orientation %q", spec.Orientation)
	}
}

// ScanBatches is the batch variant of Scan: fn receives the projected
// rows decoded one storage block (AO, CO) or row group (Parquet) at a
// time into a pooled types.Batch. The columnar formats decode straight
// into the batch arena column by column, exploiting their layout instead
// of materializing row-by-row. Ownership of each batch transfers to fn,
// which must release it with types.PutBatch (or hand it on) — the scan
// never touches a batch again after fn returns.
func ScanBatches(fs *hdfs.FileSystem, spec catalog.StorageSpec, schema *types.Schema, sf catalog.SegFile, proj []int, fn func(*types.Batch) error) error {
	codec, err := compress.Lookup(spec.Codec)
	if err != nil {
		return err
	}
	switch spec.Orientation {
	case catalog.OrientRow, "":
		return scanAOBatches(fs, codec, sf, proj, fn)
	case catalog.OrientColumn:
		return scanCOBatches(fs, codec, sf, proj, fn)
	case catalog.OrientParquet:
		return scanParquetBatches(fs, codec, sf, proj, fn)
	default:
		return fmt.Errorf("storage: unknown orientation %q", spec.Orientation)
	}
}

// ErrNoVecScan reports that a storage orientation has no encoded-vector
// scan path (AO stores whole rows, so there are no column vectors to
// hand over); callers fall back to ScanBatches.
var ErrNoVecScan = fmt.Errorf("storage: orientation has no vector scan")

// ScanVecBatches is the compressed-execution variant of ScanBatches for
// the columnar formats: fn receives each page set as a types.VecBatch
// of still-encoded column vectors (flat pages arrive as undecoded
// VecRaw streams), so predicate and aggregation kernels can run before
// any decode. Pages ruled out by preds against the on-page zone maps
// are skipped before checksum and decompression and counted in st.
// Ownership of each vec batch transfers to fn, which must release it
// with types.PutVecBatch (or hand it on).
//
// Row orientation returns ErrNoVecScan.
func ScanVecBatches(fs *hdfs.FileSystem, spec catalog.StorageSpec, schema *types.Schema, sf catalog.SegFile, proj []int, preds []ZonePred, st *ScanStats, fn func(*types.VecBatch) error) error {
	codec, err := compress.Lookup(spec.Codec)
	if err != nil {
		return err
	}
	switch spec.Orientation {
	case catalog.OrientColumn:
		return scanCOVec(fs, codec, sf, proj, preds, st, fn)
	case catalog.OrientParquet:
		return scanParquetVec(fs, codec, sf, proj, preds, st, fn)
	default:
		return ErrNoVecScan
	}
}

// ColFilePath returns the HDFS path of column i of a CO table lane.
func ColFilePath(base string, col int) string {
	return fmt.Sprintf("%s.c%d", base, col)
}

// appendBlock frames payload as one checksummed, compressed v1 block:
//
//	magic(1) | rowCount uvarint | rawLen uvarint | compLen uvarint |
//	crc32(comp)(4) | comp bytes
func appendBlock(dst []byte, codec compress.Codec, rowCount int, raw []byte) []byte {
	comp := codec.Compress(nil, raw)
	dst = append(dst, blockMagic)
	dst = binary.AppendUvarint(dst, uint64(rowCount))
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	dst = binary.AppendUvarint(dst, uint64(len(comp)))
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(comp))
	dst = append(dst, crc[:]...)
	return append(dst, comp...)
}

// appendBlockV2 frames one encoded column page as a v2 block:
//
//	magic(1) | enc(1) | rowCount uvarint | zoneLen uvarint | zone |
//	rawLen uvarint | compLen uvarint | crc32(comp)(4) | comp bytes
//
// The encoding byte and zone map sit before the compressed payload so
// a reader can decide to skip the page without checksumming or
// decompressing it.
func appendBlockV2(dst []byte, codec compress.Codec, rowCount int, enc byte, zone, raw []byte) []byte {
	comp := codec.Compress(nil, raw)
	dst = append(dst, blockMagicV2, enc)
	dst = binary.AppendUvarint(dst, uint64(rowCount))
	dst = binary.AppendUvarint(dst, uint64(len(zone)))
	dst = append(dst, zone...)
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	dst = binary.AppendUvarint(dst, uint64(len(comp)))
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(comp))
	dst = append(dst, crc[:]...)
	return append(dst, comp...)
}

// pageHdr is one parsed block header: everything needed for a skip
// decision, plus the still-compressed, still-unverified payload for
// pages that survive it.
type pageHdr struct {
	// rows is the page row count.
	rows int
	// enc is the page encoding (pageEncFlat for v1 blocks).
	enc byte
	// zone holds the zone-map bytes (nil for v1 blocks).
	zone []byte
	// comp is the compressed payload; crc is its expected checksum and
	// rawLen the expected decompressed length.
	comp   []byte
	crc    uint32
	rawLen int
	// off is the block's offset in the region, for error messages.
	off int
}

// verify checks the stored bytes against the header's checksum.
func (h *pageHdr) verify() error {
	if crc32.ChecksumIEEE(h.comp) != h.crc {
		return fmt.Errorf("storage: block checksum mismatch at offset %d", h.off)
	}
	return nil
}

// payload verifies the checksum and decompresses the page. Deferring
// this until after the zone-map decision is what makes page skipping
// pay: a skipped page costs exactly one header parse. The result is
// read-only: under the identity codec it is the region buffer itself,
// which lives as long as anything references it.
func (h *pageHdr) payload(codec compress.Codec) ([]byte, error) {
	if err := h.verify(); err != nil {
		return nil, err
	}
	raw, err := codec.Decompress(nil, h.comp)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if len(raw) != h.rawLen {
		return nil, fmt.Errorf("storage: block raw length %d, want %d", len(raw), h.rawLen)
	}
	return raw, nil
}

// blockIter walks the blocks in a byte region.
type blockIter struct {
	data []byte
	pos  int
}

// nextHeader parses the next block's header (v1 or v2), advancing the
// iterator past the whole block, or returns io.EOF at the end of the
// region. The payload stays compressed and unverified inside the
// returned header until pageHdr.payload is asked for it.
func (it *blockIter) nextHeader() (pageHdr, error) {
	var h pageHdr
	if it.pos >= len(it.data) {
		return h, io.EOF
	}
	d := it.data[it.pos:]
	h.off = it.pos
	p := 1
	switch d[0] {
	case blockMagic:
	case blockMagicV2:
		if len(d) < 2 {
			return h, fmt.Errorf("storage: truncated block header")
		}
		h.enc = d[1]
		p = 2
	default:
		return h, fmt.Errorf("storage: bad block magic 0x%02x at offset %d", d[0], it.pos)
	}
	rowCount, n := binary.Uvarint(d[p:])
	if n <= 0 {
		return h, fmt.Errorf("storage: truncated block header")
	}
	p += n
	h.rows = int(rowCount)
	if d[0] == blockMagicV2 {
		zoneLen, n := binary.Uvarint(d[p:])
		if n <= 0 {
			return h, fmt.Errorf("storage: truncated block header")
		}
		p += n
		if uint64(len(d)-p) < zoneLen {
			return h, fmt.Errorf("storage: truncated zone map")
		}
		h.zone = d[p : p+int(zoneLen)]
		p += int(zoneLen)
	}
	rawLen, n := binary.Uvarint(d[p:])
	if n <= 0 {
		return h, fmt.Errorf("storage: truncated block header")
	}
	p += n
	h.rawLen = int(rawLen)
	compLen, n := binary.Uvarint(d[p:])
	if n <= 0 {
		return h, fmt.Errorf("storage: truncated block header")
	}
	p += n
	if len(d) < p+4+int(compLen) {
		return h, fmt.Errorf("storage: truncated block body")
	}
	h.crc = binary.BigEndian.Uint32(d[p:])
	p += 4
	h.comp = d[p : p+int(compLen)]
	it.pos += p + int(compLen)
	return h, nil
}

// next returns the next block's row count and decompressed payload, or
// io.EOF at the end of the region. For v2 blocks the payload is the
// page-encoded stream (callers that need row values go through
// decodePage); AO files only ever contain v1 flat blocks.
func (it *blockIter) next(codec compress.Codec) (int, []byte, error) {
	h, err := it.nextHeader()
	if err != nil {
		return 0, nil, err
	}
	raw, err := h.payload(codec)
	if err != nil {
		return 0, nil, err
	}
	return h.rows, raw, nil
}

// readRegion reads [0, length) of an HDFS file. A zero length yields nil
// without touching the file (the file may not even exist yet when a
// table has never committed an insert on this lane).
func readRegion(fs *hdfs.FileSystem, path string, length int64) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if r.Size() < length {
		return nil, fmt.Errorf("storage: %s physical length %d below logical %d", path, r.Size(), length)
	}
	buf := make([]byte, length)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}
