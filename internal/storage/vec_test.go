package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
		vb.Materialize(b, nil)
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
	zone := zoneOf([]types.Datum{types.Null, types.Null})
	for op := expr.OpEq; op <= expr.OpGe; op++ {
		if zoneMayMatch(zone, 0, expr.ColCmp{Op: op, Val: types.NewInt64(1)}) {
			t.Errorf("all-NULL page not skipped for op %s", op)
		}
	}
}

// TestZoneMayMatchBounds pins the pruning decisions at the interval
// boundaries for every operator.
func TestZoneMayMatchBounds(t *testing.T) {
	zone := zoneOf([]types.Datum{types.NewInt64(10), types.NewInt64(20)})
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
		if got := zoneMayMatch(zone, 0, expr.ColCmp{Op: c.op, Val: types.NewInt64(c.val)}); got != c.want {
			t.Errorf("op %s val %d: mayMatch=%v, want %v", c.op, c.val, got, c.want)
		}
	}
	// A single-valued page is skippable for Ne of exactly that value.
	single := zoneOf([]types.Datum{types.NewInt64(7), types.NewInt64(7)})
	if zoneMayMatch(single, 0, expr.ColCmp{Op: expr.OpNe, Val: types.NewInt64(7)}) {
		t.Error("single-valued page not skipped for Ne of its value")
	}
	if !zoneMayMatch(single, 0, expr.ColCmp{Op: expr.OpNe, Val: types.NewInt64(8)}) {
		t.Error("single-valued page wrongly skipped for Ne of another value")
	}
	// Incomparable constant kinds never prune.
	if !zoneMayMatch(zone, 0, expr.ColCmp{Op: expr.OpEq, Val: types.NewString("x")}) {
		t.Error("incomparable predicate pruned a page")
	}
}

// TestZoneKeepsNaNPages: NaN is above every number, so a page that holds
// one has it as its maximum, wherever it stands in the page, and no
// d > c prunes the page; d = NaN does not either.
func TestZoneKeepsNaNPages(t *testing.T) {
	nan, x := types.NewFloat64(math.NaN()), types.NewFloat64(1.5)
	for _, page := range [][]types.Datum{{nan, x}, {x, nan}, {nan, types.Null, x}, {nan}} {
		zone := zoneOf(page)
		for _, c := range []float64{1.0, 3.0, 1e300, math.Inf(1)} {
			if !zoneMayMatch(zone, 0, expr.ColCmp{Op: expr.OpGt, Val: types.NewFloat64(c)}) {
				t.Errorf("page %v skipped for d > %v", page, c)
			}
		}
		if !zoneMayMatch(zone, 0, expr.ColCmp{Op: expr.OpEq, Val: nan}) {
			t.Errorf("page %v skipped for d = NaN", page)
		}
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
			enc, payload := encodeOf(c.vals)
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

// orientations are the three table formats.
var orientations = []string{catalog.OrientRow, catalog.OrientColumn, catalog.OrientParquet}

// TestOldMagicIsBadMagic: the framings the row group replaced are gone —
// a lane whose first block opens with any retired magic (0xA7 AO, 0xA8
// CO, 0xB3 and 0xB4 Parquet) is a clean bad-magic error from every scan
// entry point, cached or not, in every format, never a mis-scan of the
// bytes behind it.
func TestOldMagicIsBadMagic(t *testing.T) {
	for _, o := range orientations {
		spec := catalog.StorageSpec{Orientation: o, Codec: "quicklz"}
		for _, magic := range []byte{0xA7, 0xA8, 0xB3, 0xB4} {
			fs := testFS(t)
			sf := writeAll(t, fs, spec, testRows(3000))
			path := LaneFiles(spec, testSchema().Len(), sf)[0].Path
			data, err := fs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[0] = magic
			if err := fs.WriteFile(path, data, hdfs.CreateOptions{}); err != nil {
				t.Fatal(err)
			}
			drop := func(vb *types.VecBatch) error { types.PutVecBatch(vb); return nil }
			for name, err := range map[string]error{
				"Scan":           Scan(fs, spec, testSchema(), sf, allCols, func(types.Row) error { return nil }),
				"ScanVecBatches": ScanVecBatches(fs, spec, testSchema(), sf, allCols, nil, nil, drop),
				"cached":         NewBlockCache().ScanVecBatches(fs, spec, testSchema(), sf, allCols, nil, nil, drop),
			} {
				if err == nil || !strings.Contains(err.Error(), "magic") {
					t.Errorf("%s %s over magic 0x%02x: %v", o, name, magic, err)
				}
			}
		}
	}
}

// TestWrongOrientationIsAnError: every format frames the same groups, so
// the chunk encoding is what tells a row file from a column file. A lane
// read under another orientation — AO as Parquet, Parquet as AO, a CO
// column file as AO — is an error before any row, cached or not; read
// for its first column, the error is the encoding's, not whatever the
// decoder would stumble on.
func TestWrongOrientationIsAnError(t *testing.T) {
	rows := testRows(3000)
	for _, tc := range []struct{ wrote, read string }{
		{catalog.OrientRow, catalog.OrientParquet},
		{catalog.OrientParquet, catalog.OrientRow},
		{catalog.OrientColumn, catalog.OrientRow},
	} {
		fs := testFS(t)
		wrote := catalog.StorageSpec{Orientation: tc.wrote, Codec: "quicklz"}
		lane := LaneFiles(wrote, testSchema().Len(), writeAll(t, fs, wrote, rows))[0]
		sf := catalog.SegFile{Path: lane.Path, LogicalLen: lane.Len}
		spec := catalog.StorageSpec{Orientation: tc.read, Codec: "quicklz"}
		for _, proj := range [][]int{allCols, {0}} {
			got := 0
			count := func(vb *types.VecBatch) error { got += vb.Len(); types.PutVecBatch(vb); return nil }
			for name, err := range map[string]error{
				"ScanVecBatches": ScanVecBatches(fs, spec, testSchema(), sf, proj, nil, nil, count),
				"cached":         NewBlockCache().ScanVecBatches(fs, spec, testSchema(), sf, proj, nil, nil, count),
			} {
				if err == nil || got != 0 || len(proj) == 1 && !strings.Contains(err.Error(), "encoding") {
					t.Errorf("%s lane read as %s, %s proj %v: %d rows, err %v", tc.wrote, tc.read, name, proj, got, err)
				}
			}
		}
	}
}

// checkParseGroup holds parseGroup to its contract on arbitrary bytes:
// it never panics; a verdict other than truncated, reached on a prefix,
// is the verdict on the whole — so truncated is reported only where the
// bytes ran out, and nothing it kept depends on bytes it did not need;
// and a group it accepts has every chunk's checksum and compressed bytes
// inside the group, in ascending order.
func checkParseGroup(t *testing.T, d []byte) {
	const off = 1 << 20
	var dir fileDir
	err := parseGroup(d, off, &dir)
	var short truncated
	if errors.As(err, &short) && len(dir.blocks)+len(dir.chunks)+len(dir.zones) != 0 {
		t.Fatalf("a truncated parse kept %+v", dir)
	}
	step := max(1, len(d)/256)
	for k := 0; k < len(d); k += step {
		var pre fileDir
		perr := parseGroup(d[:k], off, &pre)
		if errors.As(perr, &short) {
			continue
		}
		if fmt.Sprint(perr) != fmt.Sprint(err) || !reflect.DeepEqual(pre, dir) {
			t.Fatalf("%d of %d bytes: %v, %+v; all of them: %v, %+v", k, len(d), perr, pre, err, dir)
		}
	}
	if err != nil {
		return
	}
	b := dir.blocks[0]
	if len(dir.blocks) != 1 || b.off != off || b.end-off > int64(len(d)) || len(dir.chunks) != dir.per {
		t.Fatalf("group %+v of %d chunks (per %d) over %d bytes", dir.blocks, len(dir.chunks), dir.per, len(d))
	}
	at := b.off
	for i, ch := range dir.chunks {
		if ch.off < at || ch.off+4+int64(ch.compLen) > b.end || ch.rawLen < 0 {
			t.Fatalf("chunk %d %+v of group [%d, %d) after %d", i, ch, b.off, b.end, at)
		}
		at = ch.off + 4 + int64(ch.compLen)
	}
}

// FuzzParseGroup fuzzes the one group-header parser, whose input comes
// from HDFS, from outside the program. The corpus is seeded with a real
// group of each format, every strict prefix of which is truncated, and
// with headers that are corrupt however many bytes follow them.
func FuzzParseGroup(f *testing.F) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		f.Fatal(err)
	}
	var short truncated
	for _, o := range orientations {
		spec := catalog.StorageSpec{Orientation: o, Codec: "quicklz"}
		sf := appendRows(f, fs, spec, catalog.SegFile{Path: "/seed/" + o}, testRows(20))
		data, err := fs.ReadFile(LaneFiles(spec, testSchema().Len(), sf)[0].Path)
		if err != nil {
			f.Fatal(err)
		}
		for k := 0; k <= len(data); k++ {
			if err := parseGroup(data[:k], 0, &fileDir{}); (k < len(data)) != errors.As(err, &short) || k == len(data) && err != nil {
				f.Fatalf("%s group, %d of %d bytes: %v", o, k, len(data), err)
			}
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	tail := make([]byte, 64)
	for _, bad := range []struct {
		name string
		b    []byte
	}{
		{"a retired magic", []byte{0xB4, 1, 1}},
		{"an overflowing varint", []byte{groupMagic, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1}},
		{"2^31 rows", []byte{groupMagic, 0x80, 0x80, 0x80, 0x80, 0x08, 1}},
		{"no chunk", []byte{groupMagic, 1, 0}},
		{"a 2^31-byte zone map", []byte{groupMagic, 1, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x08}},
		{"a 2^31-byte chunk", []byte{groupMagic, 1, 1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x08}},
	} {
		if err := parseGroup(append(bad.b, tail...), 0, &fileDir{}); err == nil || errors.As(err, &short) {
			f.Fatalf("%s: %v", bad.name, err)
		}
		f.Add(bad.b)
	}
	f.Fuzz(checkParseGroup)
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
		enc, raw := encodeOf(vals)
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
