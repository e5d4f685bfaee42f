package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// blockMeta is one directory entry: where a row group sits in its file
// and how many rows it holds.
type blockMeta struct {
	off, end int64
	rows     int32
}

// chunkMeta locates one checksummed, compressed chunk of a row group: an
// AO file's rows, a CO column page or one of a Parquet group's column
// pages. The four checksum bytes sit immediately before the compressed
// bytes, so off addresses the checksum.
type chunkMeta struct {
	off     int64
	compLen int32
	// rawLen is the decompressed length the header promises.
	rawLen int32
	// zoneOff and zoneLen locate the chunk's zone-map bytes in the
	// directory's zone arena (zoneLen 0: no zone information).
	zoneOff, zoneLen int32
	// enc is the chunk's encoding: pageEncRows for AO, a page encoding
	// for a column.
	enc byte
}

// fileDir is the group directory of a prefix of one file. Every group
// has per chunks (1 for AO and CO, the column count for Parquet), kept
// flat: group i owns chunks[i*per : (i+1)*per]. The three slices are
// pointer-free and only ever appended to, so a copy of the struct is a
// consistent snapshot.
type fileDir struct {
	blocks []blockMeta
	chunks []chunkMeta
	zones  []byte
	per    int
}

// end returns the offset just past the last block.
func (d *fileDir) end() int64 {
	if len(d.blocks) == 0 {
		return 0
	}
	return d.blocks[len(d.blocks)-1].end
}

// bytes returns the memory the entries occupy.
func (d *fileDir) bytes() int64 {
	return int64(len(d.blocks))*int64(unsafe.Sizeof(blockMeta{})) +
		int64(len(d.chunks))*int64(unsafe.Sizeof(chunkMeta{})) + int64(len(d.zones))
}

// append adds g's entries, which continue d's, rebasing their zone
// offsets onto d's arena.
func (d *fileDir) append(g *fileDir) {
	base := int32(len(d.zones))
	d.per = g.per
	d.blocks = append(d.blocks, g.blocks...)
	d.zones = append(d.zones, g.zones...)
	for _, ch := range g.chunks {
		ch.zoneOff += base
		d.chunks = append(d.chunks, ch)
	}
}

// truncated is the error of a header or body that runs past the bytes
// at hand: corruption when those bytes reach the end of the committed
// region, a reason to read further when they do not.
type truncated string

func (e truncated) Error() string { return string(e) }

// parseGroup parses the row group that starts at file offset off, whose
// bytes from there on are d, and appends it to dir: one blockMeta, its
// chunkMetas and their zone bytes. It is the one header parser of every
// format. The whole group must lie inside d; a truncated error means d
// ran out first, and any other error that the bytes it read are no group.
func parseGroup(d []byte, off int64, dir *fileDir) error {
	if len(d) == 0 {
		return truncated("storage: truncated group header")
	}
	if d[0] != groupMagic {
		return fmt.Errorf("storage: bad group magic 0x%02x at offset %d", d[0], off)
	}
	p := 1
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(d[p:])
		if n == 0 {
			return 0, truncated("storage: truncated group " + what)
		}
		if n < 0 || v > math.MaxInt32 {
			return 0, fmt.Errorf("storage: group at offset %d: %s out of range", off, what)
		}
		p += n
		return v, nil
	}
	rows, err := next("row count")
	if err != nil {
		return err
	}
	nchunks, err := next("chunk count")
	if err != nil {
		return err
	}
	if nchunks == 0 || len(dir.blocks) > 0 && int(nchunks) != dir.per {
		return fmt.Errorf("storage: group at offset %d has %d chunks, earlier groups %d", off, nchunks, dir.per)
	}
	// Nothing is kept until the whole group has parsed: a truncated parse
	// is retried on a longer window.
	nch, nzones := len(dir.chunks), len(dir.zones)
	fail := func(err error) error {
		dir.chunks, dir.zones = dir.chunks[:nch], dir.zones[:nzones]
		return err
	}
	for i := 0; i < int(nchunks); i++ {
		if p >= len(d) {
			return fail(truncated("storage: truncated group header"))
		}
		ch := chunkMeta{enc: d[p], zoneOff: int32(len(dir.zones))}
		p++
		zoneLen, err := next("zone map length")
		if err != nil {
			return fail(err)
		}
		if uint64(len(d)-p) < zoneLen {
			return fail(truncated("storage: truncated zone map"))
		}
		ch.zoneLen = int32(zoneLen)
		dir.zones = append(dir.zones, d[p:p+int(zoneLen)]...)
		p += int(zoneLen)
		dir.chunks = append(dir.chunks, ch)
	}
	for i := nch; i < len(dir.chunks); i++ {
		rawLen, err := next("chunk length")
		if err != nil {
			return fail(err)
		}
		compLen, err := next("chunk length")
		if err != nil {
			return fail(err)
		}
		dir.chunks[i].rawLen, dir.chunks[i].compLen = int32(rawLen), int32(compLen)
	}
	end := off + int64(p)
	for i := nch; i < len(dir.chunks); i++ {
		dir.chunks[i].off = end
		end += 4 + int64(dir.chunks[i].compLen)
	}
	if end-off > int64(len(d)) {
		return fail(truncated("storage: truncated group body"))
	}
	dir.per = int(nchunks)
	dir.blocks = append(dir.blocks, blockMeta{off: off, end: end, rows: int32(rows)})
	return nil
}

// readAhead is how much of a file a scan fetches at once while it does
// not know where the blocks are. Once the directory says, it fetches
// exactly the chunks it needs.
const readAhead = 1 << 20

// fileScan is one file's side of a scan: the open reader, the window of
// bytes last fetched, the cached directory the scan started from and
// the blocks it has parsed beyond it.
type fileScan struct {
	path  string
	r     *hdfs.FileReader
	end   int64       // committed logical length: nothing past it exists
	cf    *cachedFile // nil: uncached
	known fileDir     // snapshot of the cached directory
	grown fileDir     // blocks parsed by this scan, continuing known
	// win holds the file's bytes [base, base+len(win)).
	win  []byte
	base int64
	// off is the offset of the next block; cur, chunks and zones
	// describe the current one, and fresh says this scan parsed it
	// (its bytes are in the window) rather than found it in known.
	off    int64
	cur    blockMeta
	chunks []chunkMeta
	zones  []byte
	fresh  bool
}

// openFileScan opens path for a scan of its first length bytes. The one
// NameNode round trip yields the file's identity and generation (what
// the cache validates against) and its physical length. A zero length
// opens nothing: the file may not exist yet when the lane has never
// committed an insert.
func (c *BlockCache) openFileScan(fs *hdfs.FileSystem, path string, length int64) (*fileScan, error) {
	f := &fileScan{path: path, end: length}
	if length == 0 {
		return f, nil
	}
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	if r.Size() < length {
		return nil, errors.Join(fmt.Errorf("storage: %s physical length %d below logical %d", path, r.Size(), length), r.Close())
	}
	f.r = r
	f.cf, f.known = c.file(r.Identity())
	return f, nil
}

// close offers the blocks this scan discovered to the cache and
// releases the reader.
func (f *fileScan) close() error {
	f.cf.extend(&f.grown)
	if f.r == nil {
		return nil
	}
	return f.r.Close()
}

// fetch replaces the window with the file's bytes [off, off+size),
// clipped to the committed region.
func (f *fileScan) fetch(off, size int64) error {
	win := make([]byte, min(size, f.end-off))
	if _, err := f.r.ReadAt(win, off); err != nil {
		return err
	}
	f.win, f.base = win, off
	return nil
}

// advance moves to block bi, reporting false at the end of the
// committed region. A block the directory does not know yet is parsed
// from the window, which is refilled from the block's start — a
// read-ahead at first, doubled for a block larger than that — until the
// block fits or the committed region ends inside it.
func (f *fileScan) advance(bi int) (bool, error) {
	if f.off >= f.end {
		return false, nil
	}
	if bi < len(f.known.blocks) {
		f.setCur(&f.known, bi, false)
	} else {
		for size := int64(readAhead); ; {
			if f.off < f.base || f.off >= f.base+int64(len(f.win)) {
				if err := f.fetch(f.off, size); err != nil {
					return false, err
				}
			}
			d := f.win[f.off-f.base:]
			err := parseGroup(d, f.off, &f.grown)
			if err == nil {
				break
			}
			var short truncated
			if !errors.As(err, &short) || f.off+int64(len(d)) >= f.end {
				return false, err
			}
			if int64(len(d)) >= size {
				size *= 2
			}
			f.win, f.base = nil, 0
		}
		f.setCur(&f.grown, len(f.grown.blocks)-1, true)
	}
	if f.cur.end > f.end {
		return false, fmt.Errorf("storage: %s: block at offset %d runs past the committed length %d", f.path, f.cur.off, f.end)
	}
	f.off = f.cur.end
	return true, nil
}

func (f *fileScan) setCur(d *fileDir, i int, fresh bool) {
	f.cur, f.chunks, f.zones, f.fresh = d.blocks[i], d.chunks[i*d.per:(i+1)*d.per], d.zones, fresh
}

// zone returns chunk k's zone bytes of the current block.
func (f *fileScan) zone(k int) []byte {
	ch := &f.chunks[k]
	return f.zones[ch.zoneOff : ch.zoneOff+ch.zoneLen]
}

// stored returns chunk k of the current block as stored, checksum
// verified: from the window when the scan has just parsed the block out
// of it, by a read of exactly the chunk otherwise.
func (f *fileScan) stored(k int) ([]byte, error) {
	ch := &f.chunks[k]
	n := 4 + int64(ch.compLen)
	if ch.off < f.base || ch.off+n > f.base+int64(len(f.win)) {
		if err := f.fetch(ch.off, n); err != nil {
			return nil, err
		}
	}
	b := f.win[ch.off-f.base:][:n]
	if crc32.ChecksumIEEE(b[4:]) != binary.BigEndian.Uint32(b) {
		return nil, fmt.Errorf("storage: %s: block checksum mismatch at offset %d", f.path, f.cur.off)
	}
	return b[4:], nil
}

// payload returns chunk k of the current block verified and
// decompressed. Deferring this until after the zone-map decision is
// what makes page skipping pay: a skipped page costs one header parse,
// or nothing once the directory is cached. The result is read-only:
// under the identity codec it is the window itself. Nothing decoded
// from it aliases it.
func (f *fileScan) payload(k int, codec compress.Codec) ([]byte, error) {
	comp, err := f.stored(k)
	if err != nil {
		return nil, err
	}
	raw, err := codec.Decompress(nil, comp)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if want := f.chunks[k].rawLen; len(raw) != int(want) {
		return nil, fmt.Errorf("storage: block raw length %d, want %d", len(raw), want)
	}
	return raw, nil
}

// colSrc says where one column a scan outputs is stored: in which of
// the scan's files, in which chunk of each block there, and — for
// row-major chunks, which hold every column — at which position of the
// stored row.
type colSrc struct{ file, chunk, col int }

// key is the column's name among the file's cached vectors.
func (s colSrc) key(block int) vecKey { return vecKey{int32(block), int32(s.chunk + s.col)} }

// layout is how one table format lays a lane out, as far as a scan of
// given columns is concerned: the files to walk in lockstep (group i of
// each covers the same rows) and the source of every distinct column the
// scan outputs.
type layout struct {
	files []LaneFile
	// rowMajor: chunks hold whole encoded rows (AO) and are transposed
	// into column vectors; otherwise a chunk is one column's page.
	rowMajor bool
	srcs     []colSrc
	// out maps the scan's output columns onto srcs, and first maps each
	// source onto the first output column that shows it: a column
	// projected twice is decoded (or shared) once, there, and copied to
	// its other positions.
	out   []int
	first []int
}

// newLayout lays out the lane sf of a table stored as spec says for a
// scan of proj. AO and Parquet walk the lane's one file: AO transposes
// the one chunk of a group, Parquet decodes the chunk of each projected
// column. CO walks the projected columns' files, one page each, and a
// zero-column scan (COUNT(*)) only the smallest file: every column file
// carries the row counts. Only the files walked are named.
func newLayout(spec catalog.StorageSpec, sf catalog.SegFile, proj []int) (*layout, error) {
	l := &layout{}
	switch spec.Orientation {
	case catalog.OrientRow, "":
		l.files, l.rowMajor = []LaneFile{laneFile(spec, sf, 0)}, true
		l.project(proj, func(c int) colSrc { return colSrc{col: c} })
	case catalog.OrientParquet:
		l.files = []LaneFile{laneFile(spec, sf, 0)}
		l.project(proj, func(c int) colSrc { return colSrc{chunk: c} })
	case catalog.OrientColumn:
		if len(sf.ColLens) == 0 {
			return l, nil // never committed
		}
		if len(proj) == 0 {
			l.files = []LaneFile{laneFile(spec, sf, slices.Index(sf.ColLens, slices.Min(sf.ColLens)))}
		}
		for _, c := range proj {
			if c >= len(sf.ColLens) {
				return nil, fmt.Errorf("storage: CO projection column %d out of range", c)
			}
		}
		l.project(proj, func(c int) colSrc {
			l.files = append(l.files, laneFile(spec, sf, c))
			return colSrc{file: len(l.files) - 1}
		})
	default:
		return nil, fmt.Errorf("storage: unknown orientation %q", spec.Orientation)
	}
	return l, nil
}

// project fills srcs and out from a projection, with src building the
// source of stored column c.
func (l *layout) project(proj []int, src func(c int) colSrc) {
	at := map[int]int{}
	for _, c := range proj {
		i, ok := at[c]
		if !ok {
			i = len(l.srcs)
			at[c] = i
			l.srcs = append(l.srcs, src(c))
			l.first = append(l.first, len(l.out))
		}
		l.out = append(l.out, i)
	}
}

// BlockScan is the one reader of all three formats: an iterator over
// the blocks of a lane. It walks the layout's files block by block; a
// block ruled out by the zone predicates costs nothing further; for the
// others every output column comes from the cache or, failing that, from
// storage: fetched, checksummed, decompressed and decoded, and offered to
// the cache if this is not the key's first miss. It runs on its caller's
// goroutine and holds the files' readers until Close.
type BlockScan struct {
	preds []expr.ColCmp
	fill  blockFill // holds the open files
	bi    int       // the next block's ordinal
	done  bool      // end of stream, an error or Close came: nothing follows
}

// Next returns the next block that the zone predicates do not rule out,
// or nil at the end of the committed region. The caller owns the batch
// and releases it with types.PutVecBatch (or hands it on). After an
// error, and after Close, Next reports the end of the stream.
func (s *BlockScan) Next() (*types.VecBatch, error) {
	if s.done {
		return nil, nil
	}
	vb, err := s.next()
	s.done = vb == nil
	return vb, err
}

func (s *BlockScan) next() (*types.VecBatch, error) {
	files, l := s.fill.files, s.fill.l
	for len(files) > 0 {
		bi := s.bi
		s.bi++
		rows := int32(-1)
		for i, f := range files {
			more, err := f.advance(bi)
			if err != nil {
				return nil, err
			}
			if !more {
				if i == 0 {
					return nil, nil
				}
				return nil, fmt.Errorf("storage: CO column files out of sync (early EOF)")
			}
			if rows == -1 {
				rows = f.cur.rows
			} else if f.cur.rows != rows {
				return nil, fmt.Errorf("storage: CO block row counts diverge (%d vs %d)", rows, f.cur.rows)
			}
		}
		if rows <= 0 {
			continue
		}
		// One impossible conjunct against any column's zone map rules
		// the whole aligned page set out before any checksum work.
		skip := false
		for j, o := range l.out {
			src := l.srcs[o]
			if src.chunk >= len(files[src.file].chunks) {
				return nil, fmt.Errorf("storage: projection column %d out of range", src.chunk)
			}
			if !zoneMayMatch(files[src.file].zone(src.chunk), j, s.preds...) {
				skip = true
				break
			}
		}
		if skip {
			s.fill.st.notePageSkipped()
			continue
		}
		vb := types.GetVecBatch(len(l.out))
		vb.SetLen(int(rows))
		if err := s.fill.block(bi, vb); err != nil {
			// What this scan learned about the files ends at a block
			// that would not decode: none of it goes to the cache.
			for _, f := range files {
				f.grown = fileDir{}
			}
			types.PutVecBatch(vb)
			return nil, err
		}
		return vb, nil
	}
	return nil, nil
}

// Close offers the blocks this scan parsed to the cache — after k blocks
// as after all of them — and releases the readers. Closing twice is
// harmless.
func (s *BlockScan) Close() error {
	var err error
	for _, f := range s.fill.files {
		err = errors.Join(err, f.close())
	}
	s.fill.files, s.done = nil, true
	return err
}

// blockFill fills one block's batch: the per-block half of scan, with
// its scratch.
type blockFill struct {
	files []*fileScan
	l     *layout
	codec compress.Codec
	st    *ScanStats
	// admit[s]: source s missed and its vector is to be offered.
	admit []bool
	// missed lists the sources of the current block that missed; slot
	// and builders serve the row-major transposition, page the decode
	// of a columnar page.
	missed   []int
	slot     []int
	builders []types.VecBuilder
	page     types.VecBuilder
}

func (b *blockFill) block(bi int, vb *types.VecBatch) error {
	l := b.l
	if f := b.files[0]; len(l.srcs) == 0 && f.fresh {
		// A zero-column scan takes row counts from the headers, but a
		// group it parsed itself, whose bytes are in the window, enters
		// the directory verified: a corrupted file fails COUNT(*) like
		// any other scan of it, in every format.
		for k := range f.chunks {
			if _, err := f.stored(k); err != nil {
				return err
			}
		}
	}
	b.missed = b.missed[:0]
	for s, src := range l.srcs {
		hit, admit := b.files[src.file].cf.lookup(src.key(bi), &vb.Cols[l.first[s]], b.st)
		if !hit {
			b.missed = append(b.missed, s)
			b.admit[s] = admit
		}
	}
	if l.rowMajor && len(b.missed) > 0 {
		if err := b.transpose(vb); err != nil {
			return err
		}
	}
	for _, s := range b.missed {
		src, v := l.srcs[s], &vb.Cols[l.first[s]]
		f := b.files[src.file]
		if !l.rowMajor {
			// What the cache is to keep is decoded into slices of its
			// own: no pooled capacity.
			raw, err := f.payload(src.chunk, b.codec)
			if err != nil {
				return err
			}
			if err := decodePage(&b.page, f.chunks[src.chunk].enc, raw, vb.Len(), v, b.admit[s]); err != nil {
				return err
			}
		}
		if b.admit[s] {
			f.cf.put(src.key(bi), v)
		}
	}
	for j, s := range l.out {
		if j != l.first[s] {
			vb.Cols[j] = vb.Cols[l.first[s]]
			vb.Cols[j].Shared = true
		}
	}
	return nil
}

// transpose decodes the missed columns of the current row-major block
// into flat typed vectors, walking every row once: wanted columns decode
// onto their vectors, the rest are stepped over.
func (b *blockFill) transpose(vb *types.VecBatch) error {
	l, f := b.l, b.files[0]
	// The one encoding that marks a row file: a page of any other lane
	// read as rows is refused, as decodePage refuses rows.
	if enc := f.chunks[0].enc; enc != pageEncRows {
		return fmt.Errorf("storage: %s: group at offset %d holds a column page (encoding %d), not rows", f.path, f.cur.off, enc)
	}
	raw, err := f.payload(0, b.codec)
	if err != nil {
		return err
	}
	b.slot = b.slot[:0]
	if cap(b.builders) < len(b.missed) {
		b.builders = make([]types.VecBuilder, len(b.missed))
	}
	b.builders = b.builders[:len(b.missed)]
	for k, s := range b.missed {
		c := l.srcs[s].col
		for len(b.slot) <= c {
			b.slot = append(b.slot, -1)
		}
		b.slot[c] = k
		// A row is at least its header byte: a row count beyond the
		// payload is corruption the walk below reports.
		b.builders[k].Reset(&vb.Cols[l.first[s]], min(vb.Len(), len(raw)), b.admit[s])
	}
	pos := 0
	for i := 0; i < vb.Len(); i++ {
		n, ncols, err := types.DecodeRowVecs(raw[pos:], b.slot, b.builders)
		if err != nil {
			return err
		}
		if ncols < len(b.slot) {
			return fmt.Errorf("storage: AO projection column %d out of range (row width %d)", len(b.slot)-1, ncols)
		}
		pos += n
	}
	for k := range b.builders {
		b.builders[k].Finish()
	}
	return nil
}
