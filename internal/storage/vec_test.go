package storage

import (
	"reflect"
	"strings"
	"testing"

	"hawq/internal/catalog"
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

// TestOldMagicIsBadMagic: the readers of the retired formats are gone —
// a CO block under the flat-block magic (0xA7, AO's) or a Parquet group
// under the old group magic (0xB3) is a clean bad-magic error from every
// scan entry point, cached or not, never a mis-scan of the bytes behind
// it.
func TestOldMagicIsBadMagic(t *testing.T) {
	for _, tc := range []struct {
		spec  catalog.StorageSpec
		magic byte
	}{
		{catalog.StorageSpec{Orientation: catalog.OrientColumn, Codec: "quicklz"}, blockMagic},
		{catalog.StorageSpec{Orientation: catalog.OrientParquet, Codec: "snappy"}, 0xB3},
	} {
		fs := testFS(t)
		sf := writeAll(t, fs, tc.spec, testRows(3000))
		path := sf.Path
		if tc.spec.Orientation == catalog.OrientColumn {
			path = ColFilePath(sf.Path, 0)
		}
		data, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[0] = tc.magic
		if err := fs.WriteFile(path, data, hdfs.CreateOptions{}); err != nil {
			t.Fatal(err)
		}
		drop := func(vb *types.VecBatch) error { types.PutVecBatch(vb); return nil }
		for name, err := range map[string]error{
			"Scan":           Scan(fs, tc.spec, testSchema(), sf, allCols, func(types.Row) error { return nil }),
			"ScanVecBatches": ScanVecBatches(fs, tc.spec, testSchema(), sf, allCols, nil, nil, drop),
			"cached":         NewBlockCache().ScanVecBatches(fs, tc.spec, testSchema(), sf, allCols, nil, nil, drop),
		} {
			if err == nil || !strings.Contains(err.Error(), "magic") {
				t.Errorf("%s %s over magic 0x%02x: %v", tc.spec.Orientation, name, tc.magic, err)
			}
		}
	}
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
