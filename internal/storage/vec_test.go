package storage

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/testutil"
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
func scanAllVec(t *testing.T, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, proj []int, preds []expr.ColCmp, st *ScanStats) []types.Row {
	t.Helper()
	return scanAllCached(t, nil, fs, spec, sf, proj, preds, st)
}

// scanAllCached materializes every vec batch a scan through c produces
// (nil: uncached).
func scanAllCached(t *testing.T, c *BlockCache, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, proj []int, preds []expr.ColCmp, st *ScanStats) []types.Row {
	t.Helper()
	var out []types.Row
	err := c.ScanVecBatches(fs, spec, testSchema(), sf, proj, preds, st, func(vb *types.VecBatch) error {
		b := types.GetBatch(0)
		defer types.PutBatch(b)
		defer types.PutVecBatch(vb)
		vb.Materialize(b)
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
			preds := []expr.ColCmp{{Col: 0, Op: expr.OpLt, Val: types.NewInt64(100)}}
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
	for op := expr.OpEq; op <= expr.OpGe; op++ {
		if zoneMayMatch(zone, expr.ColCmp{Op: op, Val: types.NewInt64(1)}) {
			t.Errorf("all-NULL page not skipped for op %s", op)
		}
	}
}

// TestZoneMayMatchBounds pins the pruning decisions at the interval
// boundaries for every operator.
func TestZoneMayMatchBounds(t *testing.T) {
	zone := buildZone(nil, []types.Datum{types.NewInt64(10), types.NewInt64(20)})
	cases := []struct {
		op   expr.BinOpKind
		val  int64
		want bool
	}{
		{expr.OpEq, 9, false}, {expr.OpEq, 10, true}, {expr.OpEq, 15, true}, {expr.OpEq, 20, true}, {expr.OpEq, 21, false},
		{expr.OpLt, 10, false}, {expr.OpLt, 11, true},
		{expr.OpLe, 9, false}, {expr.OpLe, 10, true},
		{expr.OpGt, 20, false}, {expr.OpGt, 19, true},
		{expr.OpGe, 21, false}, {expr.OpGe, 20, true},
		{expr.OpNe, 15, true},
	}
	for _, c := range cases {
		if got := zoneMayMatch(zone, expr.ColCmp{Op: c.op, Val: types.NewInt64(c.val)}); got != c.want {
			t.Errorf("op %s val %d: mayMatch=%v, want %v", c.op, c.val, got, c.want)
		}
	}
	// A single-valued page is skippable for Ne of exactly that value.
	single := buildZone(nil, []types.Datum{types.NewInt64(7), types.NewInt64(7)})
	if zoneMayMatch(single, expr.ColCmp{Op: expr.OpNe, Val: types.NewInt64(7)}) {
		t.Error("single-valued page not skipped for Ne of its value")
	}
	if !zoneMayMatch(single, expr.ColCmp{Op: expr.OpNe, Val: types.NewInt64(8)}) {
		t.Error("single-valued page wrongly skipped for Ne of another value")
	}
	// Incomparable constant kinds never prune.
	if !zoneMayMatch(zone, expr.ColCmp{Op: expr.OpEq, Val: types.NewString("x")}) {
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
			if err := decodePage(new(types.VecBuilder), enc, payload, len(c.vals), &v, false); err != nil {
				t.Fatal(err)
			}
			if got := testutil.VectorRows(&v); !reflect.DeepEqual(got, c.vals) || v.Mixed {
				t.Fatalf("round trip mismatch (mixed %v)", v.Mixed)
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
			if v.Enc != types.VecFlat || v.N != vb.Len() || v.Mixed || len(v.Values) != 0 || v.Shared {
				t.Errorf("col %d: enc %d, N %d, mixed %v, %d Datums, shared %v", j, v.Enc, v.N, v.Mixed, len(v.Values), v.Shared)
			}
			for i, d := range testutil.VectorRows(v) {
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

// refDecodePage is what a page's bytes mean, spelled with DecodeDatum: a
// Datum per row, under the same rules of well-formedness decodePage
// enforces.
func refDecodePage(enc byte, raw []byte, rowCount int) ([]types.Datum, error) {
	var rows []types.Datum
	pos := 0
	datum := func() (types.Datum, error) {
		d, n, err := types.DecodeDatum(raw[pos:])
		pos += n
		return d, err
	}
	switch enc {
	case pageEncFlat:
		for len(rows) < rowCount {
			d, err := datum()
			if err != nil {
				return nil, err
			}
			rows = append(rows, d)
		}
	case pageEncRLE:
		for pos < len(raw) {
			run, n := binary.Uvarint(raw[pos:])
			if n <= 0 || run == 0 || run > uint64(rowCount-len(rows)) {
				return nil, fmt.Errorf("bad run")
			}
			pos += n
			d, err := datum()
			if err != nil {
				return nil, err
			}
			for ; run > 0; run-- {
				rows = append(rows, d)
			}
		}
		if len(rows) != rowCount {
			return nil, fmt.Errorf("runs cover %d of %d rows", len(rows), rowCount)
		}
	case pageEncDict:
		size, n := binary.Uvarint(raw)
		if n <= 0 || size > maxDictEntries {
			return nil, fmt.Errorf("bad dictionary size")
		}
		pos = n
		dict := make([]types.Datum, size)
		for i := range dict {
			var err error
			if dict[i], err = datum(); err != nil {
				return nil, err
			}
		}
		for len(rows) < rowCount {
			c, n := binary.Uvarint(raw[pos:])
			if n <= 0 || c >= size {
				return nil, fmt.Errorf("bad code")
			}
			pos += n
			rows = append(rows, dict[c])
		}
	default:
		return nil, fmt.Errorf("unknown encoding")
	}
	if pos != len(raw) {
		return nil, fmt.Errorf("trailing bytes")
	}
	return rows, nil
}

// checkDecodePage holds decodePage to refDecodePage on arbitrary bytes:
// it must never panic, it must refuse exactly what the reference
// refuses, and what it accepts must read back, row for row, as the
// Datums the same bytes decode to — typed when those share one kind and
// scale, in the Mixed fallback when they do not.
func checkDecodePage(t *testing.T, enc byte, raw []byte, rowCount int) {
	if rowCount < 0 || rowCount > 1<<20 {
		return
	}
	want, refErr := refDecodePage(enc, raw, rowCount)
	for _, exact := range []bool{false, true} {
		var v types.Vector
		err := decodePage(new(types.VecBuilder), enc, raw, rowCount, &v, exact)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("enc %d: decodePage says %v, the reference %v", enc, err, refErr)
		}
		if err != nil {
			continue
		}
		got := testutil.VectorRows(&v)
		if len(got) != len(want) {
			t.Fatalf("enc %d: %d rows, want %d", enc, len(got), len(want))
		}
		kinds := map[[2]int]bool{}
		for i := range got {
			if string(types.EncodeDatum(nil, got[i])) != string(types.EncodeDatum(nil, want[i])) {
				t.Fatalf("enc %d row %d: %#v, want %#v", enc, i, got[i], want[i])
			}
			if !want[i].IsNull() {
				kinds[[2]int{int(want[i].K), int(want[i].Scale)}] = true
			}
		}
		// A dictionary may hold an entry of another kind no row uses.
		if enc != pageEncDict && v.Mixed != (len(kinds) > 1) {
			t.Fatalf("enc %d: %d kinds among the values, mixed %v", enc, len(kinds), v.Mixed)
		}
		if !v.Mixed && len(v.Values) != 0 {
			t.Fatalf("enc %d: a typed page kept %d Datums", enc, len(v.Values))
		}
	}
}

// pageSeeds returns writer output of every encoding, typed pages and
// pages of several kinds, as (encoding, payload, rows).
func pageSeeds() (seeds []struct {
	enc  byte
	raw  []byte
	rows int
}) {
	add := func(vals []types.Datum) {
		enc, raw := encodePage(nil, vals)
		seeds = append(seeds, struct {
			enc  byte
			raw  []byte
			rows int
		}{enc, raw, len(vals)})
	}
	runs, strs, words, flat, mixed, nulls := make([]types.Datum, 500), make([]types.Datum, 100), make([]types.Datum, 400),
		make([]types.Datum, 64), make([]types.Datum, 64), make([]types.Datum, 10)
	for i := range runs {
		runs[i] = types.NewInt64(int64(i / 50))
	}
	for i := range strs {
		strs[i] = types.NewString("run")
	}
	for i := range words {
		words[i] = types.NewString([]string{"aa", "bb", "cc"}[i%3])
	}
	for i := range flat {
		flat[i] = types.NewDecimal(int64(i*7919), 2)
		mixed[i] = []types.Datum{types.NewInt64(int64(i)), types.NewString("s"), types.Null, types.NewDecimal(int64(i), int8(i%3)),
			types.NewFloat64(float64(i)), types.NewDate(int32(i)), types.NewBool(i%2 == 0)}[i%7]
	}
	flat[3] = types.Null
	add(runs)
	add(strs)
	add(words)
	add(flat)
	add(mixed)
	add(nulls)
	add(append(append([]types.Datum{}, words[:50]...), types.Null, types.Null))
	// A page that turns Mixed long after its only NULL: the demotion reads
	// entries the null bitmap being built does not reach.
	late := []types.Datum{types.Null}
	for i := 0; i < 100; i++ {
		late = append(late, types.NewDecimal(int64(i*7919), 2))
	}
	add(append(late, types.NewDecimal(25, 1)))
	return seeds
}

// FuzzDecodePage fuzzes the page decoder over all three encodings with a
// corpus seeded from real writer output.
func FuzzDecodePage(f *testing.F) {
	for _, s := range pageSeeds() {
		f.Add(s.enc, s.raw, s.rows)
		f.Add(s.enc, s.raw[:len(s.raw)/2], s.rows)
		f.Add(byte((s.enc+1)%3), s.raw, s.rows)
	}
	f.Add(byte(pageEncFlat), []byte{byte(types.KindDecimal), 200, 2}, 1<<20)
	f.Add(byte(pageEncRLE), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0}, 7)
	f.Add(byte(9), []byte{1, 2, 3}, 3)
	f.Fuzz(func(t *testing.T, enc byte, raw []byte, rowCount int) { checkDecodePage(t, enc, raw, rowCount) })
}

// FuzzDecodeRLE fuzzes the RLE page decoder alone.
func FuzzDecodeRLE(f *testing.F) {
	for _, s := range pageSeeds()[:2] {
		f.Add(s.raw, s.rows)
	}
	f.Fuzz(func(t *testing.T, raw []byte, rowCount int) { checkDecodePage(t, pageEncRLE, raw, rowCount) })
}

// FuzzDecodeDict fuzzes the dictionary page decoder alone.
func FuzzDecodeDict(f *testing.F) {
	s := pageSeeds()[2]
	f.Add(s.raw, s.rows)
	f.Fuzz(func(t *testing.T, raw []byte, rowCount int) { checkDecodePage(t, pageEncDict, raw, rowCount) })
}
