package storage

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// vecSpecs are the orientations with an encoded-vector scan path.
var vecSpecs = []catalog.StorageSpec{
	{Orientation: catalog.OrientColumn, Codec: "none"},
	{Orientation: catalog.OrientColumn, Codec: "quicklz"},
	{Orientation: catalog.OrientParquet, Codec: "snappy"},
}

// scanAllVec materializes every vec batch an uncached vector scan
// produces.
func scanAllVec(t *testing.T, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, proj []int, preds []ZonePred, st *ScanStats) []types.Row {
	t.Helper()
	return scanAllCached(t, nil, fs, spec, sf, proj, preds, st)
}

// scanAllCached materializes every vec batch a scan through c produces
// (nil: uncached).
func scanAllCached(t *testing.T, c *BlockCache, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, proj []int, preds []ZonePred, st *ScanStats) []types.Row {
	t.Helper()
	var out []types.Row
	err := c.ScanVecBatches(fs, spec, testSchema(), sf, proj, preds, st, func(vb *types.VecBatch) error {
		b := types.GetBatch(0)
		defer types.PutBatch(b)
		defer types.PutVecBatch(vb)
		if err := vb.Materialize(b); err != nil {
			return err
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i).Clone())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScanVecBatchesParity checks the encoded-vector scan materializes
// to exactly what the row scan produces, for every vec-capable format.
func TestScanVecBatchesParity(t *testing.T) {
	rows := testRows(5000)
	for _, spec := range vecSpecs {
		t.Run(spec.Orientation+"/"+spec.Codec, func(t *testing.T) {
			fs := testFS(t)
			sf := writeAll(t, fs, spec, rows)
			want := scanAll(t, fs, spec, sf, allCols)
			got := scanAllVec(t, fs, spec, sf, allCols, nil, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("vec scan diverges from row scan (%d vs %d rows)", len(got), len(want))
			}
		})
	}
}

// TestZoneMapSkipsPages checks that a selective predicate over the
// sorted key column skips pages, that skipped pages are counted, and
// that the surviving rows are a superset of the true matches with
// nothing lost.
func TestZoneMapSkipsPages(t *testing.T) {
	rows := testRows(20000)
	for _, spec := range vecSpecs {
		t.Run(spec.Orientation+"/"+spec.Codec, func(t *testing.T) {
			fs := testFS(t)
			sf := writeAll(t, fs, spec, rows)
			// k = row index, ascending: k < 100 lives in the first page.
			preds := []ZonePred{{Col: 0, Op: ZoneLt, Val: types.NewInt64(100)}}
			var st ScanStats
			got := scanAllVec(t, fs, spec, sf, allCols, preds, &st)
			if st.PagesSkipped == 0 {
				t.Fatalf("no pages skipped on a selective sorted-key predicate")
			}
			seen := map[int64]bool{}
			for _, r := range got {
				seen[r[0].Int()] = true
			}
			for i := int64(0); i < 100; i++ {
				if !seen[i] {
					t.Fatalf("zone pruning lost matching row k=%d", i)
				}
			}
		})
	}
}

// TestZoneAllNullPageSkips checks a page of only NULLs is skippable by
// any comparison predicate.
func TestZoneAllNullPageSkips(t *testing.T) {
	zone := buildZone(nil, []types.Datum{types.Null, types.Null})
	for op := ZoneEq; op <= ZoneGe; op++ {
		if zoneMayMatch(zone, ZonePred{Op: op, Val: types.NewInt64(1)}) {
			t.Errorf("all-NULL page not skipped for op %d", op)
		}
	}
}

// TestZoneMayMatchBounds pins the pruning decisions at the interval
// boundaries for every operator.
func TestZoneMayMatchBounds(t *testing.T) {
	zone := buildZone(nil, []types.Datum{types.NewInt64(10), types.NewInt64(20)})
	cases := []struct {
		op   ZoneOp
		val  int64
		want bool
	}{
		{ZoneEq, 9, false}, {ZoneEq, 10, true}, {ZoneEq, 15, true}, {ZoneEq, 20, true}, {ZoneEq, 21, false},
		{ZoneLt, 10, false}, {ZoneLt, 11, true},
		{ZoneLe, 9, false}, {ZoneLe, 10, true},
		{ZoneGt, 20, false}, {ZoneGt, 19, true},
		{ZoneGe, 21, false}, {ZoneGe, 20, true},
		{ZoneNe, 15, true},
	}
	for _, c := range cases {
		if got := zoneMayMatch(zone, ZonePred{Op: c.op, Val: types.NewInt64(c.val)}); got != c.want {
			t.Errorf("op %d val %d: mayMatch=%v, want %v", c.op, c.val, got, c.want)
		}
	}
	// A single-valued page is skippable for Ne of exactly that value.
	single := buildZone(nil, []types.Datum{types.NewInt64(7), types.NewInt64(7)})
	if zoneMayMatch(single, ZonePred{Op: ZoneNe, Val: types.NewInt64(7)}) {
		t.Error("single-valued page not skipped for Ne of its value")
	}
	if !zoneMayMatch(single, ZonePred{Op: ZoneNe, Val: types.NewInt64(8)}) {
		t.Error("single-valued page wrongly skipped for Ne of another value")
	}
	// Incomparable constant kinds never prune.
	if !zoneMayMatch(zone, ZonePred{Op: ZoneEq, Val: types.NewString("x")}) {
		t.Error("incomparable predicate pruned a page")
	}
}

// TestEncodePageChoosesEncodings pins the writer's encoding policy and
// that every choice round-trips through decodePage.
func TestEncodePageChoosesEncodings(t *testing.T) {
	sorted := make([]types.Datum, 1000)
	for i := range sorted {
		sorted[i] = types.NewInt64(int64(i / 100)) // runs of 100
	}
	lowCard := make([]types.Datum, 1000)
	states := []string{"alpha", "beta", "gamma", "delta"}
	for i := range lowCard {
		lowCard[i] = types.NewString(states[(i*7)%len(states)])
	}
	unique := make([]types.Datum, 1000)
	for i := range unique {
		unique[i] = types.NewInt64(int64(i * 31972846))
	}
	cases := []struct {
		name string
		vals []types.Datum
		enc  byte
	}{
		{"sorted-runs", sorted, pageEncRLE},
		{"low-card-strings", lowCard, pageEncDict},
		{"unique-ints", unique, pageEncFlat},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc, payload := encodePage(nil, c.vals)
			if enc != c.enc {
				t.Fatalf("chose encoding %d, want %d", enc, c.enc)
			}
			var v types.Vector
			if err := decodePage(enc, payload, len(c.vals), &v); err != nil {
				t.Fatal(err)
			}
			got, err := v.Decode(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.vals) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

// writeV1CO writes rows in the pre-zone-map v1 CO format (flat pages,
// 0xA7 block framing), replicating the old writer byte for byte.
func writeV1CO(t *testing.T, fs *hdfs.FileSystem, codec compress.Codec, path string, rows []types.Row, pageRows int) catalog.SegFile {
	t.Helper()
	ncols := len(rows[0])
	sf := catalog.SegFile{Path: path, ColLens: make([]int64, ncols), Tuples: int64(len(rows))}
	for c := 0; c < ncols; c++ {
		w, err := fs.CreateOrAppend(ColFilePath(path, c), hdfs.CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(rows); i += pageRows {
			end := min(i+pageRows, len(rows))
			var raw []byte
			for _, r := range rows[i:end] {
				raw = types.EncodeDatum(raw, r[c])
			}
			block := appendBlock(nil, codec, end-i, raw)
			if _, err := w.Write(block); err != nil {
				t.Fatal(err)
			}
			sf.ColLens[c] += int64(len(block))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sf.LogicalLen += sf.ColLens[c]
	}
	return sf
}

// writeV1Parquet writes rows in the pre-zone-map v1 Parquet format
// (0xB3 groups without column metadata).
func writeV1Parquet(t *testing.T, fs *hdfs.FileSystem, codec compress.Codec, path string, rows []types.Row, groupRows int) catalog.SegFile {
	t.Helper()
	ncols := len(rows[0])
	sf := catalog.SegFile{Path: path, Tuples: int64(len(rows))}
	w, err := fs.CreateOrAppend(path, hdfs.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rows); i += groupRows {
		end := min(i+groupRows, len(rows))
		chunks := make([][]byte, ncols)
		for c := 0; c < ncols; c++ {
			var raw []byte
			for _, r := range rows[i:end] {
				raw = types.EncodeDatum(raw, r[c])
			}
			chunks[c] = codec.Compress(nil, raw)
		}
		out := []byte{groupMagic}
		out = binary.AppendUvarint(out, uint64(end-i))
		out = binary.AppendUvarint(out, uint64(ncols))
		for _, c := range chunks {
			out = binary.AppendUvarint(out, uint64(len(c)))
		}
		for _, c := range chunks {
			var crc [4]byte
			binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(c))
			out = append(out, crc[:]...)
			out = append(out, c...)
		}
		if _, err := w.Write(out); err != nil {
			t.Fatal(err)
		}
		sf.LogicalLen += int64(len(out))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sf
}

// TestV1FormatStillScans round-trips old-format fixture bytes through
// the new readers: files written before page encodings and zone maps
// must scan identically through the row, batch, and vector paths.
func TestV1FormatStillScans(t *testing.T) {
	rows := testRows(3000)
	t.Run("co", func(t *testing.T) {
		fs := testFS(t)
		codec, err := compress.Lookup("quicklz")
		if err != nil {
			t.Fatal(err)
		}
		spec := catalog.StorageSpec{Orientation: catalog.OrientColumn, Codec: "quicklz"}
		sf := writeV1CO(t, fs, codec, "/data/v1/co", rows, 700)
		for _, got := range [][]types.Row{
			scanAll(t, fs, spec, sf, allCols),
			scanAllVec(t, fs, spec, sf, allCols, nil, nil),
			// Zone predicates over v1 pages (no zone maps) must not
			// prune anything.
			scanAllVec(t, fs, spec, sf, allCols, []ZonePred{{Col: 0, Op: ZoneLt, Val: types.NewInt64(10)}}, nil),
		} {
			if len(got) != len(rows) {
				t.Fatalf("scanned %d of %d v1 rows", len(got), len(rows))
			}
			for i := range rows {
				if !reflect.DeepEqual(got[i], rows[i]) {
					t.Fatalf("v1 row %d mismatch: %v != %v", i, got[i], rows[i])
				}
			}
		}
	})
	t.Run("parquet", func(t *testing.T) {
		fs := testFS(t)
		codec, err := compress.Lookup("snappy")
		if err != nil {
			t.Fatal(err)
		}
		spec := catalog.StorageSpec{Orientation: catalog.OrientParquet, Codec: "snappy"}
		sf := writeV1Parquet(t, fs, codec, "/data/v1/pq", rows, 700)
		for _, got := range [][]types.Row{
			scanAll(t, fs, spec, sf, allCols),
			scanAllVec(t, fs, spec, sf, allCols, nil, nil),
		} {
			if len(got) != len(rows) {
				t.Fatalf("scanned %d of %d v1 rows", len(got), len(rows))
			}
			for i := range rows {
				if !reflect.DeepEqual(got[i], rows[i]) {
					t.Fatalf("v1 row %d mismatch", i)
				}
			}
		}
	})
}

// TestScanVecBatchesRowOrientation: an AO block arrives transposed into
// one flat vector per projected column, strings of a column sharing one
// backing allocation.
func TestScanVecBatchesRowOrientation(t *testing.T) {
	fs := testFS(t)
	spec := catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"}
	rows := testRows(10)
	sf := writeAll(t, fs, spec, rows)
	seen := 0
	err := ScanVecBatches(fs, spec, testSchema(), sf, allCols, nil, nil, func(vb *types.VecBatch) error {
		defer types.PutVecBatch(vb)
		for j := range vb.Cols {
			v := &vb.Cols[j]
			if v.Enc != types.VecFlat || v.N != vb.Len() || len(v.Values) != vb.Len() || v.Shared {
				t.Errorf("col %d: enc %d, N %d, %d values, shared %v", j, v.Enc, v.N, len(v.Values), v.Shared)
			}
			for i, d := range v.Values {
				if d != rows[seen+i][j] {
					t.Errorf("row %d col %d: %v, want %v", seen+i, j, d, rows[seen+i][j])
				}
			}
		}
		seen += vb.Len()
		return nil
	})
	if err != nil || seen != len(rows) {
		t.Fatalf("AO vec scan: %d rows, err %v", seen, err)
	}
}

// FuzzDecodeRLE fuzzes the RLE page decoder with a corpus seeded from
// real writer output: it must never panic, and on valid input must
// round-trip.
func FuzzDecodeRLE(f *testing.F) {
	vals := make([]types.Datum, 500)
	for i := range vals {
		vals[i] = types.NewInt64(int64(i / 50))
	}
	if enc, payload := encodePage(nil, vals); enc == pageEncRLE {
		f.Add(payload, 500)
	}
	strs := make([]types.Datum, 100)
	for i := range strs {
		strs[i] = types.NewString("run")
	}
	if enc, payload := encodePage(nil, strs); enc == pageEncRLE {
		f.Add(payload, 100)
	}
	f.Fuzz(func(t *testing.T, raw []byte, rowCount int) {
		if rowCount < 0 || rowCount > 1<<20 {
			return
		}
		var v types.Vector
		if err := decodePage(pageEncRLE, raw, rowCount, &v); err != nil {
			return
		}
		if _, err := v.Decode(nil); err != nil {
			t.Fatalf("decodePage accepted input Decode rejects: %v", err)
		}
	})
}

// FuzzDecodeDict fuzzes the dictionary page decoder with writer-seeded
// corpus entries.
func FuzzDecodeDict(f *testing.F) {
	vals := make([]types.Datum, 400)
	words := []string{"aa", "bb", "cc"}
	for i := range vals {
		vals[i] = types.NewString(words[i%3])
	}
	if enc, payload := encodePage(nil, vals); enc == pageEncDict {
		f.Add(payload, 400)
	}
	f.Fuzz(func(t *testing.T, raw []byte, rowCount int) {
		if rowCount < 0 || rowCount > 1<<20 {
			return
		}
		var v types.Vector
		if err := decodePage(pageEncDict, raw, rowCount, &v); err != nil {
			return
		}
		if _, err := v.Decode(nil); err != nil {
			t.Fatalf("decodePage accepted input Decode rejects: %v", err)
		}
	})
}
