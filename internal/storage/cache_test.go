package storage

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/obs"
	"hawq/internal/testutil"
	"hawq/internal/types"
)

// cacheSpecs are the formats the cache tests run over.
var cacheSpecs = []catalog.StorageSpec{
	{Orientation: catalog.OrientRow, Codec: "none"},
	{Orientation: catalog.OrientRow, Codec: "quicklz"},
	{Orientation: catalog.OrientColumn, Codec: "none"},
	{Orientation: catalog.OrientColumn, Codec: "quicklz"},
	{Orientation: catalog.OrientParquet, Codec: "none"},
	{Orientation: catalog.OrientParquet, Codec: "quicklz"},
}

// appendRows appends rows to the lane sf describes and returns it at its
// new lengths — one more committed insert.
func appendRows(t testing.TB, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, rows []types.Row) catalog.SegFile {
	t.Helper()
	w, err := NewWriter(fs, spec, testSchema(), sf, hdfs.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sf.LogicalLen, sf.ColLens = w.Lens()
	sf.Tuples = w.Tuples()
	return sf
}

// truncateLane is the §5.3 rollback: every file of the lane back to the
// lengths in sf.
func truncateLane(t testing.TB, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile) {
	t.Helper()
	for _, f := range LaneFiles(spec, testSchema().Len(), sf) {
		if err := fs.Truncate(f.Path, f.Len); err != nil {
			t.Fatal(err)
		}
	}
}

// residentVectors counts the vectors the cache holds.
func residentVectors(c *BlockCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// TestCacheWarmReadsNothing: the first scan of a lane remembers its
// directory and that its keys were seen, the second admits the vectors,
// and from the third on a scan costs one Open: no DataNode byte, no
// miss, the same rows, and the same pages skipped by the zone maps,
// which now come from the directory.
func TestCacheWarmReadsNothing(t *testing.T) {
	rows := testRows(6000)
	preds := []expr.ColCmp{{Col: 0, Op: expr.OpGe, Val: types.NewInt64(1500)}, {Col: 0, Op: expr.OpLt, Val: types.NewInt64(1700)}}
	readBytes := func() int64 { return obs.Value("hdfs.read_bytes") }
	for _, spec := range cacheSpecs {
		t.Run(spec.Orientation+"/"+spec.Codec, func(t *testing.T) {
			fs := testFS(t)
			sf := writeAll(t, fs, spec, rows)
			c := NewBlockCache()
			var cold ScanStats
			want := scanAllVec(t, fs, spec, sf, []int{0, 2}, preds, &cold)
			if cold.CacheHits+cold.CacheMisses != 0 {
				t.Fatalf("uncached scan counted cache traffic: %+v", cold)
			}
			for pass := 0; pass < 4; pass++ {
				before := readBytes()
				var st ScanStats
				got := scanAllCached(t, c, fs, spec, sf, []int{0, 2}, preds, &st)
				read := readBytes() - before
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d: %d rows, uncached scan has %d", pass, len(got), len(want))
				}
				if st.PagesSkipped != cold.PagesSkipped {
					t.Errorf("pass %d: %d pages skipped, uncached scan skipped %d", pass, st.PagesSkipped, cold.PagesSkipped)
				}
				switch {
				case pass == 0 && (residentVectors(c) != 0 || st.CacheHits != 0):
					t.Errorf("first touch admitted %d vectors (stats %+v)", residentVectors(c), st)
				case pass == 1 && (residentVectors(c) == 0 || read == 0):
					t.Errorf("second touch: %d vectors resident, %d bytes read", residentVectors(c), read)
				case pass >= 2 && (read != 0 || st.CacheMisses != 0 || st.CacheHits == 0):
					t.Errorf("warm pass %d read %d bytes, stats %+v", pass, read, st)
				}
			}
			if spec.Orientation != catalog.OrientRow && cold.PagesSkipped == 0 {
				t.Error("the predicate skipped no page: the test compares nothing")
			}
			// A COUNT(*) is answered from the directory once it is known
			// (a CO lane counts on its smallest column file, which the
			// scans above may not have opened).
			scanAllCached(t, c, fs, spec, sf, nil, nil, nil)
			before := readBytes()
			if n := len(scanAllCached(t, c, fs, spec, sf, nil, nil, nil)); n != len(rows) || readBytes() != before {
				t.Errorf("warm zero-column scan: %d rows, %d bytes read", n, readBytes()-before)
			}
			if used := c.Bytes(); used <= 0 || used > BlockCacheBytes || used != c.acct.Used() {
				t.Errorf("cache holds %d bytes", used)
			}
			c.Drop()
			if c.Bytes() != 0 || residentVectors(c) != 0 {
				t.Errorf("after Drop: %d bytes, %d vectors", c.Bytes(), residentVectors(c))
			}
		})
	}
}

// TestCacheOneOffScanDoesNotFlush: a single pass over another table — a
// compaction, a load's check — neither enters the cache nor
// pushes out what is hot.
func TestCacheOneOffScanDoesNotFlush(t *testing.T) {
	spec := catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "quicklz"}
	fs := testFS(t)
	hot := writeAll(t, fs, spec, testRows(2000))
	big := appendRows(t, fs, spec, catalog.SegFile{Path: "/data/big/0/1"}, testRows(20000))
	// Room for the hot table only.
	c := newBlockCache(400 << 10)
	for i := 0; i < 3; i++ {
		scanAllCached(t, c, fs, spec, hot, allCols, nil, nil)
	}
	resident := residentVectors(c)
	if resident == 0 {
		t.Fatal("hot table not admitted")
	}
	evictions := obs.Value("storage.cache_evictions")
	scanAllCached(t, c, fs, spec, big, allCols, nil, nil)
	if got := residentVectors(c); got != resident || obs.Value("storage.cache_evictions") != evictions {
		t.Errorf("one pass over a cold table left %d of %d hot vectors (%d evictions)", got, resident, obs.Value("storage.cache_evictions")-evictions)
	}
	var st ScanStats
	scanAllCached(t, c, fs, spec, hot, allCols, nil, &st)
	if st.CacheMisses != 0 {
		t.Errorf("hot table after the one-off scan: %+v", st)
	}
}

// TestCacheTruncateGeneration is the generation case, one line to
// reproduce: a transaction reads its own uncommitted insert (twice, so
// the blocks are admitted), aborts — the lane is truncated back — and
// another writer appends different rows that land at the very same
// offsets. The file id is the same and so are the lengths; only the
// generation HDFS bumped in Truncate says the cached blocks are stale.
func TestCacheTruncateGeneration(t *testing.T) {
	for _, spec := range cacheSpecs {
		t.Run(spec.Orientation+"/"+spec.Codec, func(t *testing.T) {
			fs := testFS(t)
			c := NewBlockCache()
			committed := writeAll(t, fs, spec, testRows(1000))
			mine := testRows(3000)[1000:]
			theirs := make([]types.Row, len(mine))
			for i, r := range mine {
				theirs[i] = r.Clone()
				theirs[i][1] = types.NewDecimal(r[1].I+1, 2) // same encoded length, another value
			}
			own := appendRows(t, fs, spec, committed, mine)
			for i := 0; i < 3; i++ {
				if got := scanAllCached(t, c, fs, spec, own, allCols, nil, nil); len(got) != 3000 {
					t.Fatalf("own-writes scan saw %d rows", len(got))
				}
			}
			truncateLane(t, fs, spec, committed)
			next := appendRows(t, fs, spec, committed, theirs)
			if spec.Codec == "none" && (next.LogicalLen != own.LogicalLen || !reflect.DeepEqual(next.ColLens, own.ColLens)) {
				t.Fatalf("the second writer's bytes do not land on the first's offsets: %+v vs %+v", next, own)
			}
			want := scanAllVec(t, fs, spec, next, allCols, nil, nil)
			for i := 0; i < 3; i++ {
				if got := scanAllCached(t, c, fs, spec, next, allCols, nil, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("scan %d after abort and re-append returned the aborted transaction's rows", i)
				}
			}
			if !reflect.DeepEqual(want[1000], theirs[0]) {
				t.Fatalf("row 1000 = %v, want %v", want[1000], theirs[0])
			}
		})
	}
}

// TestCacheRecreatedPathIsANewFile: DROP + CREATE of the same name (or
// any delete and re-create of a path) is a new file id; nothing cached
// under the old one is reachable.
func TestCacheRecreatedPathIsANewFile(t *testing.T) {
	for _, spec := range cacheSpecs {
		fs := testFS(t)
		c := NewBlockCache()
		old := writeAll(t, fs, spec, testRows(800))
		for i := 0; i < 3; i++ {
			scanAllCached(t, c, fs, spec, old, allCols, nil, nil)
		}
		if err := fs.Delete("/data/t/0", true); err != nil {
			t.Fatal(err)
		}
		rows := testRows(1600)[800:]
		fresh := writeAll(t, fs, spec, rows)
		for i := 0; i < 3; i++ {
			if got := scanAllCached(t, c, fs, spec, fresh, allCols, nil, nil); !reflect.DeepEqual(got, rows) {
				t.Fatalf("%s/%s: scan %d of the re-created lane returned the dropped table's rows", spec.Orientation, spec.Codec, i)
			}
		}
	}
}

// TestCacheSnapshotsAndGrowth: the directory covers a prefix of an
// append-only file. A scan with a longer committed length reads and
// parses only the tail; one with an older snapshot sees exactly its
// prefix, from blocks cached by readers that saw more.
func TestCacheSnapshotsAndGrowth(t *testing.T) {
	all := testRows(9000)
	for _, spec := range cacheSpecs {
		t.Run(spec.Orientation+"/"+spec.Codec, func(t *testing.T) {
			fs := testFS(t)
			c := NewBlockCache()
			v1 := writeAll(t, fs, spec, all[:3000])
			for i := 0; i < 3; i++ {
				scanAllCached(t, c, fs, spec, v1, allCols, nil, nil)
			}
			v2 := appendRows(t, fs, spec, v1, all[3000:6000])
			before := obs.Value("hdfs.read_bytes")
			if got := scanAllCached(t, c, fs, spec, v2, allCols, nil, nil); !reflect.DeepEqual(got, all[:6000]) {
				t.Fatalf("scan at the second commit: %d rows", len(got))
			}
			grew := v2.LogicalLen - v1.LogicalLen
			for i := range v2.ColLens {
				grew += v2.ColLens[i] - v1.ColLens[i]
			}
			if spec.Orientation == catalog.OrientColumn {
				grew -= v2.LogicalLen - v1.LogicalLen // the total is the sum of the columns
			}
			if read := obs.Value("hdfs.read_bytes") - before; read != grew {
				t.Errorf("scan of a grown file read %d bytes, the file grew by %d", read, grew)
			}
			v3 := appendRows(t, fs, spec, v2, all[6000:])
			for i := 0; i < 3; i++ {
				scanAllCached(t, c, fs, spec, v3, allCols, nil, nil)
			}
			for _, snap := range []struct {
				sf   catalog.SegFile
				rows int
			}{{v1, 3000}, {v2, 6000}, {v3, 9000}} {
				var st ScanStats
				got := scanAllCached(t, c, fs, spec, snap.sf, []int{2, 0}, nil, &st)
				if len(got) != snap.rows || st.CacheMisses != 0 {
					t.Fatalf("snapshot of %d rows: saw %d, stats %+v", snap.rows, len(got), st)
				}
				for i, r := range got {
					if r[0] != all[i][2] || r[1] != all[i][0] {
						t.Fatalf("snapshot of %d rows: row %d = %v", snap.rows, i, r)
					}
				}
			}
		})
	}
}

// TestCacheReaderRacesAppender runs readers through one cache while a
// writer keeps committing appends to the same lane. Every scan must
// return exactly the rows of the commit it was given — run with -race.
func TestCacheReaderRacesAppender(t *testing.T) {
	all := testRows(12000)
	const step = 500
	for _, spec := range []catalog.StorageSpec{cacheSpecs[1], cacheSpecs[3], cacheSpecs[5]} {
		t.Run(spec.Orientation, func(t *testing.T) {
			fs := testFS(t)
			c := NewBlockCache()
			var committed atomic.Pointer[catalog.SegFile]
			first := writeAll(t, fs, spec, all[:step])
			committed.Store(&first)
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						sf := *committed.Load()
						n := 0
						err := c.ScanVecBatches(fs, spec, testSchema(), sf, []int{0}, nil, nil, func(vb *types.VecBatch) error {
							defer types.PutVecBatch(vb)
							for _, d := range testutil.VectorRows(&vb.Cols[0]) {
								if d.I != int64(n) {
									return fmt.Errorf("row %d has key %d", n, d.I)
								}
								n++
							}
							return nil
						})
						if err != nil || int64(n) != sf.Tuples {
							t.Errorf("scan at %d committed rows saw %d: %v", sf.Tuples, n, err)
							return
						}
					}
				}()
			}
			sf := first
			for at := step; at < len(all); at += step {
				sf = appendRows(t, fs, spec, sf, all[at:at+step])
				next := sf
				committed.Store(&next)
			}
			close(done)
			wg.Wait()
		})
	}
}

// TestCacheNeverAdmitsCorruption: checksums are verified when bytes are
// decoded, which is before anything can be offered to the cache. A
// corrupted block fails every read of it, first or fifth, with the
// checksum error; a row cut short inside a column the scan only skips is
// still corruption; neither leaves a vector behind.
func TestCacheNeverAdmitsCorruption(t *testing.T) {
	for _, spec := range cacheSpecs {
		fs := testFS(t)
		sf := writeAll(t, fs, spec, testRows(30000))
		// The last bytes of a Parquet group belong to its last column, and
		// a CO lane's last file is that column's.
		files, proj := LaneFiles(spec, testSchema().Len(), sf), []int{3}
		path := files[len(files)-1].Path
		blocks := int32(0)
		if err := ScanVecBatches(fs, spec, testSchema(), sf, proj, nil, nil, func(vb *types.VecBatch) error {
			blocks++
			types.PutVecBatch(vb)
			return nil
		}); err != nil || blocks < 2 {
			t.Fatalf("%s/%s: %d blocks, %v", spec.Orientation, spec.Codec, blocks, err)
		}
		data, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-10] ^= 0xFF // inside the last block's payload
		if err := fs.WriteFile(path, data, hdfs.CreateOptions{}); err != nil {
			t.Fatal(err)
		}
		c := NewBlockCache()
		for i := 0; i < 4; i++ {
			err := c.ScanVecBatches(fs, spec, testSchema(), sf, proj, nil, nil, func(vb *types.VecBatch) error {
				types.PutVecBatch(vb)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Errorf("%s/%s scan %d of a corrupted file: %v", spec.Orientation, spec.Codec, i, err)
			}
		}
		// The intact blocks before the bad one are cached by now; the bad
		// one never is.
		c.mu.Lock()
		resident := 0
		for _, f := range c.files {
			for key := range f.vecs {
				resident++
				if key.block >= blocks-1 {
					t.Errorf("%s/%s: vector of the corrupted block %d admitted", spec.Orientation, spec.Codec, key.block)
				}
			}
		}
		c.mu.Unlock()
		if resident == 0 {
			t.Errorf("%s/%s: the intact blocks were not admitted: the check above compares nothing", spec.Orientation, spec.Codec)
		}
	}

	fs := testFS(t)
	row := types.Row{types.NewInt64(1), types.NewDecimal(43955, 2), types.NewString("a name long enough to cut"), types.NewDate(10000)}
	raw := types.EncodeRow(nil, row)
	raw = raw[:len(raw)-len(types.EncodeDatum(nil, row[3]))-2] // cut inside column 2, the string
	codec, err := compress.Lookup("quicklz")
	if err != nil {
		t.Fatal(err)
	}
	block := rowGroup(codec, 1, raw)
	sf := catalog.SegFile{Path: "/data/cut", LogicalLen: int64(len(block))}
	if err := fs.WriteFile(sf.Path, block, hdfs.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	c := NewBlockCache()
	spec := catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "quicklz"}
	for i := 0; i < 3; i++ {
		err := c.ScanVecBatches(fs, spec, testSchema(), sf, []int{0, 1}, nil, nil, func(vb *types.VecBatch) error {
			types.PutVecBatch(vb)
			return nil
		})
		if err == nil {
			t.Errorf("scan %d accepted a row truncated inside a skipped column", i)
		}
	}
	if residentVectors(c) != 0 {
		t.Errorf("%d vectors of a corrupt block admitted", residentVectors(c))
	}
}

// TestCacheCapacity: with room for a fraction of the table (and an
// admission filter that still remembers a whole pass), results stay
// correct under constant eviction and the account never exceeds its
// limit; with room for less than one vector nothing is admitted and the
// scan is simply uncached.
func TestCacheCapacity(t *testing.T) {
	rows := testRows(20000)
	for _, spec := range []catalog.StorageSpec{cacheSpecs[1], cacheSpecs[3], cacheSpecs[5]} {
		fs := testFS(t)
		sf := writeAll(t, fs, spec, rows)
		want := scanAllVec(t, fs, spec, sf, allCols, nil, nil)
		for _, limit := range []int64{384 << 10, 2 << 10} {
			c := newBlockCache(limit)
			evictions := obs.Value("storage.cache_evictions")
			for pass := 0; pass < 4; pass++ {
				i := 0
				err := c.ScanVecBatches(fs, spec, testSchema(), sf, allCols, nil, nil, func(vb *types.VecBatch) error {
					defer types.PutVecBatch(vb)
					if used := c.Bytes(); used > limit {
						t.Errorf("%s limit %d: account at %d", spec.Orientation, limit, used)
					}
					b := types.GetBatch(0)
					defer types.PutBatch(b)
					vb.Materialize(b, nil)
					for r := 0; r < b.Len(); r++ {
						if !reflect.DeepEqual(b.Row(r), want[i]) {
							return fmt.Errorf("row %d = %v, want %v", i, b.Row(r), want[i])
						}
						i++
					}
					return nil
				})
				if err != nil || i != len(want) {
					t.Fatalf("%s limit %d pass %d: %d rows, %v", spec.Orientation, limit, pass, i, err)
				}
			}
			evicted := obs.Value("storage.cache_evictions") - evictions
			switch {
			case limit == 384<<10 && (evicted == 0 || residentVectors(c) == 0):
				t.Errorf("%s limit %d: %d evictions, %d resident", spec.Orientation, limit, evicted, residentVectors(c))
			case limit == 2<<10 && residentVectors(c) != 0:
				t.Errorf("%s limit %d: %d vectors larger than the cache admitted", spec.Orientation, limit, residentVectors(c))
			}
		}
	}
}

// TestCacheGaugeFollowsAccounts: storage.cache_bytes is the sum of the
// live caches' accounts and returns what a dropped cache held.
func TestCacheGaugeFollowsAccounts(t *testing.T) {
	spec := cacheSpecs[1]
	fs := testFS(t)
	sf := writeAll(t, fs, spec, testRows(3000))
	base := obs.Value("storage.cache_bytes")
	a, b := NewBlockCache(), NewBlockCache()
	for i := 0; i < 2; i++ {
		scanAllCached(t, a, fs, spec, sf, allCols, nil, nil)
		scanAllCached(t, b, fs, spec, sf, []int{0}, nil, nil)
	}
	if got := obs.Value("storage.cache_bytes") - base; got != a.Bytes()+b.Bytes() || a.Bytes() <= b.Bytes() {
		t.Errorf("gauge moved by %d, accounts hold %d + %d", got, a.Bytes(), b.Bytes())
	}
	a.Drop()
	b.Drop()
	if got := obs.Value("storage.cache_bytes"); got != base {
		t.Errorf("gauge at %d after both caches dropped, was %d", got, base)
	}
}

// TestCacheCorruptBlockStaysOutOfTheDirectory: a COUNT(*) on a row
// table answers from cached row counts, so a block may enter the
// directory only once its checksum has been seen good. A scan that dies
// on a corrupted block must not leave that block's header behind for a
// later zero-column scan to trust.
func TestCacheCorruptBlockStaysOutOfTheDirectory(t *testing.T) {
	spec := cacheSpecs[1]
	fs := testFS(t)
	sf := writeAll(t, fs, spec, testRows(3000))
	data, err := fs.ReadFile(sf.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xFF
	if err := fs.WriteFile(sf.Path, data, hdfs.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	c := NewBlockCache()
	for i, proj := range [][]int{{0}, nil, {0}, nil} {
		err := c.ScanVecBatches(fs, spec, testSchema(), sf, proj, nil, nil, func(vb *types.VecBatch) error {
			types.PutVecBatch(vb)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("scan %d (proj %v) of a corrupted file: %v", i, proj, err)
		}
	}
}

// TestCacheHoldsTypedVectors: what the cache keeps of an int, decimal,
// string or date column — with NULLs or without, from any format — is
// pointer-free typed storage: no Datum per row, no pointer per row, one
// backing string per column of strings. MemBytes is exactly the bytes
// those slices hold (the cache's account charges nothing else for a
// vector), a float column and a column whose kinds differ included, and
// the fallback is taken by that last column alone.
func TestCacheHoldsTypedVectors(t *testing.T) {
	schema := types.NewSchema(append(testSchema().Columns,
		types.Column{Name: "f", Kind: types.KindFloat64}, types.Column{Name: "any", Kind: types.KindInt64})...)
	rows := testRows(9000)
	for i := range rows {
		mixed := types.NewInt64(int64(i))
		if i%2 == 0 {
			mixed = types.NewDecimal(int64(i), int8(i%3))
		}
		rows[i] = append(rows[i], types.NewFloat64(float64(i)/3), mixed)
	}
	for _, spec := range cacheSpecs {
		t.Run(fmt.Sprintf("%s/%s", spec.Orientation, spec.Codec), func(t *testing.T) {
			fs := testFS(t)
			sf := catalog.SegFile{Path: "/data/typed/0/1"}
			w, err := NewWriter(fs, spec, schema, sf, hdfs.CreateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			sf.LogicalLen, sf.ColLens = w.Lens()
			c := NewBlockCache()
			for i := 0; i < 2; i++ {
				err := c.ScanVecBatches(fs, spec, schema, sf, schema.AllCols(), nil, nil, func(vb *types.VecBatch) error {
					types.PutVecBatch(vb)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			var vectors, mixed, charged int64
			for _, f := range c.files {
				charged += f.charged
				for key, el := range f.vecs {
					e := el.Value.(*cacheEntry)
					v := &e.vec
					vectors++
					charged += e.size
					col := int(key.col)
					if spec.Orientation == catalog.OrientColumn {
						col = -1 // one file per column: the class says which
					}
					held := int64(len(v.Ints)+len(v.Floats)+len(v.Nulls))*8 + int64(len(v.Offs)+len(v.Runs)+len(v.Codes))*4 + int64(len(v.Str))
					for _, d := range v.Values {
						held += int64(unsafe.Sizeof(d)) + int64(len(d.S))
					}
					// Only a bitmap or codes grown by append may hold spare
					// capacity, and MemBytes counts that too.
					if got := v.MemBytes(); got < held || got > held+int64(8*cap(v.Nulls)+4*cap(v.Codes)+4*cap(v.Runs)) || e.size != got+entryOverhead {
						t.Errorf("block %d col %d: MemBytes %d, slices hold %d, charged %d", key.block, key.col, got, held, e.size)
					}
					if !v.Shared {
						t.Errorf("block %d col %d: a cached vector is not marked shared", key.block, key.col)
					}
					if v.Mixed != (col == 5 || col == -1 && len(v.Values) > 0) || !v.Mixed && len(v.Values) != 0 {
						t.Errorf("block %d col %d: mixed %v with %d Datums", key.block, key.col, v.Mixed, len(v.Values))
					}
					if v.Mixed {
						mixed++
						continue
					}
					if want := map[int]types.VecClass{0: types.ClassInt, 1: types.ClassInt, 2: types.ClassStr, 3: types.ClassInt, 4: types.ClassFloat}[col]; col >= 0 && v.Class() != want {
						t.Errorf("block %d col %d: class %d, want %d", key.block, key.col, v.Class(), want)
					}
					if v.Class() == types.ClassStr && len(v.Offs) != v.Entries()+1 {
						t.Errorf("block %d col %d: %d offsets for %d strings", key.block, key.col, len(v.Offs), v.Entries())
					}
				}
			}
			if vectors == 0 || mixed*6 != vectors || charged != c.Bytes() {
				t.Errorf("%d vectors (%d mixed) charged %d, the account holds %d", vectors, mixed, charged, c.Bytes())
			}
		})
	}
}
