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

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/obs"
	"hawq/internal/types"
)

// DefaultBlockTarget is the uncompressed block size writers aim for.
const DefaultBlockTarget = 64 * 1024

// blockMagic marks an AO block: flat datum payload, no page metadata (a
// row-oriented payload has no per-column encoding to describe).
const blockMagic = 0xA7

// blockMagicV2 marks a CO block, whose header additionally carries the
// page encoding byte and the zone-map bytes. Each format's reader
// accepts its own magic only.
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
	// CacheHits and CacheMisses count the (block, stored column) lookups
	// a scan made in its segment's block cache; both stay zero for an
	// uncached scan.
	CacheHits, CacheMisses int64
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
	return ScanBatches(fs, spec, schema, sf, proj, func(b *types.Batch) error {
		defer types.PutBatch(b)
		for i := 0; i < b.Len(); i++ {
			if err := fn(b.Row(i).Clone()); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanBatches is the batch variant of Scan: fn receives the projected
// rows of one storage block (AO, CO) or row group (Parquet) at a time,
// materialized column by column into a pooled types.Batch. Ownership of
// each batch transfers to fn, which must release it with types.PutBatch
// (or hand it on) — the scan never touches a batch again after fn
// returns.
func ScanBatches(fs *hdfs.FileSystem, spec catalog.StorageSpec, schema *types.Schema, sf catalog.SegFile, proj []int, fn func(*types.Batch) error) error {
	return ScanVecBatches(fs, spec, schema, sf, proj, nil, nil, func(vb *types.VecBatch) error {
		b := types.GetBatch(0)
		vb.Materialize(b)
		types.PutVecBatch(vb)
		return fn(b)
	})
}

// ScanVecBatches is the callback form of OpenScan, uncached: fn
// receives each block as a types.VecBatch of typed column vectors, so
// predicate and aggregation kernels can run before anything is
// materialized. A columnar page is decoded once into typed entries,
// keeping its runs or dictionary codes; a row-oriented block is
// transposed once into flat vectors of the same form. Pages ruled out by
// preds against the on-page zone maps are skipped before checksum and
// decompression and counted in st; every other projected page is decoded
// in full.
// Ownership of each vec batch transfers to fn, which must release it
// with types.PutVecBatch (or hand it on).
//
// This entry point reads storage every time. A segment's scans go
// through its BlockCache instead.
func ScanVecBatches(fs *hdfs.FileSystem, spec catalog.StorageSpec, schema *types.Schema, sf catalog.SegFile, proj []int, preds []expr.ColCmp, st *ScanStats, fn func(*types.VecBatch) error) error {
	return (*BlockCache)(nil).ScanVecBatches(fs, spec, schema, sf, proj, preds, st, fn)
}

// ScanVecBatches is the package-level ScanVecBatches through the cache:
// the same batches, with every vector taken from memory when the cache
// holds it and shared read-only (Vector.Shared) when it does.
func (c *BlockCache) ScanVecBatches(fs *hdfs.FileSystem, spec catalog.StorageSpec, _ *types.Schema, sf catalog.SegFile, proj []int, preds []expr.ColCmp, st *ScanStats, fn func(*types.VecBatch) error) error {
	s, err := c.OpenScan(fs, spec, sf, proj, preds, st)
	if err != nil {
		return err
	}
	for {
		vb, err := s.Next()
		if vb != nil {
			err = fn(vb)
		}
		if vb == nil || err != nil {
			// fn's error comes back as it is, not wrapped.
			if cerr := s.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
}

// OpenScan starts a scan of the committed contents of one segment file
// through the cache (a nil cache reads storage every time): the iterator
// every other entry point loops over. The caller pulls blocks with Next
// and must Close the scan, early or at the end.
func (c *BlockCache) OpenScan(fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, proj []int, preds []expr.ColCmp, st *ScanStats) (*BlockScan, error) {
	codec, err := compress.Lookup(spec.Codec)
	if err != nil {
		return nil, err
	}
	var l *layout
	switch spec.Orientation {
	case catalog.OrientRow, "":
		l = aoLayout(sf, proj)
	case catalog.OrientColumn:
		l, err = coLayout(sf, proj)
	case catalog.OrientParquet:
		l = parquetLayout(sf, proj)
	default:
		err = fmt.Errorf("storage: unknown orientation %q", spec.Orientation)
	}
	if err != nil {
		return nil, err
	}
	return c.openScan(fs, codec, l, preds, st)
}

// ColFilePath returns the HDFS path of column i of a CO table lane.
func ColFilePath(base string, col int) string {
	return fmt.Sprintf("%s.c%d", base, col)
}

// appendBlock frames payload as one checksummed, compressed AO block:
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
