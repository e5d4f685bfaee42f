// Package storage implements HAWQ's read-optimized table formats on HDFS
// (§2.5): AO (row-oriented append-only), CO (column-oriented, one file
// per column) and a Parquet-like PAX format. The three differ only in how
// a lane's columns are split across files. Every file of every format is
// a run of row groups in one framing (group, parseGroup): a group holds
// checksummed, compressed chunks — an AO group one chunk of whole encoded
// rows, a CO group one column page, a Parquet group a page of every
// column — each chunk with its encoding and zone map in the header, ahead
// of every payload. LaneFiles is the one place that knows which files
// make up a lane.
//
// Writers append only; visibility is enforced by the caller scanning no
// further than the committed logical length recorded in the catalog
// (§5). Writers always flush whole groups, so a committed logical length
// always falls on a group boundary, and garbage from an aborted insert
// beyond it is skipped entirely (and truncated before the next append).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/obs"
	"hawq/internal/types"
)

// DefaultBlockTarget is the uncompressed block size writers aim for.
const DefaultBlockTarget = 64 * 1024

// groupMagic opens every row group. The magics of the framings it
// replaced (0xA7 AO, 0xA8 CO, 0xB3 and 0xB4 Parquet) are bad magic: HDFS
// is in-process, so no file of theirs outlives the process that wrote it.
const groupMagic = 0xB5

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
	// Flush writes buffered rows as one row group in each of the lane's
	// files.
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
	// Stats returns, once closed, the lane's statistics, for SegFile.Stats.
	Stats() string
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
	case catalog.OrientRow, "", catalog.OrientColumn, catalog.OrientParquet:
	default:
		return nil, fmt.Errorf("storage: unknown orientation %q", spec.Orientation)
	}
	files := LaneFiles(spec, schema.Len(), sf)
	out := laneOut{codec: codec, lens: make([]int64, len(files)), tuples: sf.Tuples, co: spec.Orientation == catalog.OrientColumn, stats: catalog.OpenLaneStats(sf, schema.Len())}
	for i, f := range files {
		fw, err := fs.CreateOrAppend(f.Path, opts)
		if err != nil {
			return nil, out.close(err)
		}
		out.files = append(out.files, fw)
		out.lens[i] = f.Len
	}
	switch spec.Orientation {
	case catalog.OrientColumn, catalog.OrientParquet:
		n := schema.Len()
		return &colWriter{laneOut: out, ncols: n, chunks: [][]types.Datum{make([]types.Datum, 0, n)}}, nil
	default:
		return &aoWriter{laneOut: out}, nil
	}
}

// LaneFile is one HDFS file of a lane and how many of its bytes are
// committed.
type LaneFile struct {
	Path string
	Len  int64
}

// LaneFiles returns the files that make up the lane sf of a table of
// ncols columns stored as spec says, each at its committed length: AO
// and Parquet keep a lane in one file, CO one file per column. Nothing
// outside this package knows how a format splits a lane.
func LaneFiles(spec catalog.StorageSpec, ncols int, sf catalog.SegFile) []LaneFile {
	if spec.Orientation != catalog.OrientColumn {
		ncols = 1
	}
	files := make([]LaneFile, ncols)
	for i := range files {
		files[i] = laneFile(spec, sf, i)
	}
	return files
}

// laneFile is file i of LaneFiles: the lane's one file, or CO's file of
// column i. A column file the catalog has no length for (the lane's
// first insert has not committed) is at length 0.
func laneFile(spec catalog.StorageSpec, sf catalog.SegFile, i int) LaneFile {
	if spec.Orientation != catalog.OrientColumn {
		return LaneFile{sf.Path, sf.LogicalLen}
	}
	f := LaneFile{Path: fmt.Sprintf("%s.c%d", sf.Path, i)}
	if i < len(sf.ColLens) {
		f.Len = sf.ColLens[i]
	}
	return f
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
// rows of one row group at a time, materialized column by column into a
// pooled types.Batch. Ownership of
// each batch transfers to fn, which must release it with types.PutBatch
// (or hand it on) — the scan never touches a batch again after fn
// returns.
func ScanBatches(fs *hdfs.FileSystem, spec catalog.StorageSpec, schema *types.Schema, sf catalog.SegFile, proj []int, fn func(*types.Batch) error) error {
	return ScanVecBatches(fs, spec, schema, sf, proj, nil, nil, func(vb *types.VecBatch) error {
		b := types.GetBatch(0)
		vb.Materialize(b, nil)
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
	l, err := newLayout(spec, sf, proj)
	if err != nil {
		return nil, err
	}
	s := &BlockScan{preds: preds}
	s.fill = blockFill{files: make([]*fileScan, 0, len(l.files)), l: l, codec: codec, st: st, admit: make([]bool, len(l.srcs))}
	for _, lf := range l.files {
		f, err := c.openFileScan(fs, lf.Path, lf.Len)
		if err != nil {
			return nil, errors.Join(err, s.Close())
		}
		s.fill.files = append(s.fill.files, f)
	}
	return s, nil
}

// group builds one row group a chunk at a time. Its buffers are the
// writer's scratch, reused from group to group:
//
//	magic(1) | rows uvarint | nchunks uvarint |
//	  nchunks × (enc(1) | zoneLen uvarint | zone) |
//	  nchunks × (rawLen uvarint | compLen uvarint) |
//	  nchunks × (crc32(comp)(4) | comp)
//
// Every encoding byte and zone map sits before any payload, so a reader
// can skip a group, or a chunk, from the header alone; every chunk's
// checksum sits immediately before its compressed bytes.
type group struct {
	head, lens, body []byte
	n                int
}

// add compresses raw, a chunk of encoding enc with zone map zone, into
// the group.
func (g *group) add(codec compress.Codec, enc byte, zone, raw []byte) {
	g.head = append(g.head, enc)
	g.head = binary.AppendUvarint(g.head, uint64(len(zone)))
	g.head = append(g.head, zone...)
	at := len(g.body)
	g.body = codec.Compress(append(g.body, 0, 0, 0, 0), raw)
	comp := g.body[at+4:]
	binary.BigEndian.PutUint32(g.body[at:], crc32.ChecksumIEEE(comp))
	g.lens = binary.AppendUvarint(g.lens, uint64(len(raw)))
	g.lens = binary.AppendUvarint(g.lens, uint64(len(comp)))
	g.n++
}

// appendTo frames the group's chunks, which cover rows rows, onto dst and
// empties the group for the next.
func (g *group) appendTo(dst []byte, rows int) []byte {
	dst = append(dst, groupMagic)
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = binary.AppendUvarint(dst, uint64(g.n))
	dst = append(append(append(dst, g.head...), g.lens...), g.body...)
	g.head, g.lens, g.body, g.n = g.head[:0], g.lens[:0], g.body[:0], 0
	return dst
}

// laneOut is the file side of every writer: the lane's files open for
// append, their lengths after the last flush, the rows written, the
// lane's column statistics and the framing scratch.
type laneOut struct {
	files  []*hdfs.FileWriter
	lens   []int64
	co     bool // the catalog records every file's length (CO)
	tuples int64
	stats  *catalog.LaneStats // nil: the lane keeps none
	codec  compress.Codec
	group  group
	out    []byte
}

// Lens implements Writer: CO reports every column file's length beside
// their sum, AO and Parquet their one file's.
func (o *laneOut) Lens() (int64, []int64) {
	if !o.co {
		return o.lens[0], nil
	}
	var total int64
	for _, l := range o.lens {
		total += l
	}
	return total, slices.Clone(o.lens)
}

// write frames the group built so far, covering rows rows, onto file i.
func (o *laneOut) write(i, rows int) error {
	o.out = o.group.appendTo(o.out[:0], rows)
	if _, err := o.files[i].Write(o.out); err != nil {
		return err
	}
	o.lens[i] += int64(len(o.out))
	return nil
}

// close closes every file after a flush (or an open) that failed with
// err, reporting the first error.
func (o *laneOut) close(err error) error {
	for _, fw := range o.files {
		if cerr := fw.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Tuples implements Writer.
func (o *laneOut) Tuples() int64 { return o.tuples }

// Stats implements Writer.
func (o *laneOut) Stats() string { return o.stats.Encode() }
