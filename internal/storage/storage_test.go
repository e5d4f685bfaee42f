package storage

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

func testFS(t *testing.T) *hdfs.FileSystem {
	t.Helper()
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt64},
		types.Column{Name: "price", Kind: types.KindDecimal, Scale: 2},
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "d", Kind: types.KindDate},
	)
}

// allCols is the explicit "every column" projection (a nil proj means
// none).
var allCols = testSchema().AllCols()

func testRows(n int) []types.Row {
	r := rand.New(rand.NewSource(7))
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt64(int64(i)),
			types.NewDecimal(r.Int63n(100000), 2),
			types.NewString(fmt.Sprintf("item-%d-%x", i, r.Int63())),
			types.NewDate(int32(10000 + i%365)),
		}
		if i%17 == 0 {
			rows[i][2] = types.Null
		}
	}
	return rows
}

// writeAll writes rows and returns the committed SegFile.
func writeAll(t *testing.T, fs *hdfs.FileSystem, spec catalog.StorageSpec, rows []types.Row) catalog.SegFile {
	t.Helper()
	return appendRows(t, fs, spec, catalog.SegFile{Path: "/data/t/0/1"}, rows)
}

func scanAll(t *testing.T, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, proj []int) []types.Row {
	t.Helper()
	var out []types.Row
	if err := Scan(fs, spec, testSchema(), sf, proj, func(r types.Row) error {
		out = append(out, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

var allSpecs = []catalog.StorageSpec{
	{Orientation: catalog.OrientRow, Codec: "none"},
	{Orientation: catalog.OrientRow, Codec: "quicklz"},
	{Orientation: catalog.OrientRow, Codec: "zlib-5"},
	{Orientation: catalog.OrientColumn, Codec: "none"},
	{Orientation: catalog.OrientColumn, Codec: "quicklz"},
	{Orientation: catalog.OrientColumn, Codec: "rle"},
	{Orientation: catalog.OrientParquet, Codec: "none"},
	{Orientation: catalog.OrientParquet, Codec: "snappy"},
	{Orientation: catalog.OrientParquet, Codec: "gzip-1"},
}

func TestRoundTripAllFormats(t *testing.T) {
	rows := testRows(5000)
	for _, spec := range allSpecs {
		t.Run(spec.Orientation+"/"+spec.Codec, func(t *testing.T) {
			fs := testFS(t)
			sf := writeAll(t, fs, spec, rows)
			if sf.Tuples != int64(len(rows)) {
				t.Errorf("tuples = %d", sf.Tuples)
			}
			got := scanAll(t, fs, spec, sf, allCols)
			if len(got) != len(rows) {
				t.Fatalf("rows = %d, want %d", len(got), len(rows))
			}
			for i := range rows {
				if !reflect.DeepEqual(got[i], rows[i]) {
					t.Fatalf("row %d: %v != %v", i, got[i], rows[i])
				}
			}
		})
	}
}

func TestProjection(t *testing.T) {
	rows := testRows(1000)
	for _, spec := range []catalog.StorageSpec{
		{Orientation: catalog.OrientRow, Codec: "quicklz"},
		{Orientation: catalog.OrientColumn, Codec: "quicklz"},
		{Orientation: catalog.OrientParquet, Codec: "quicklz"},
	} {
		fs := testFS(t)
		sf := writeAll(t, fs, spec, rows)
		got := scanAll(t, fs, spec, sf, []int{2, 0})
		if len(got) != len(rows) {
			t.Fatalf("%s: rows = %d", spec.Orientation, len(got))
		}
		for i := range got {
			if len(got[i]) != 2 || !types.Equal(got[i][1], rows[i][0]) || !types.Equal(got[i][0], rows[i][2]) {
				t.Fatalf("%s: projected row %d = %v", spec.Orientation, i, got[i])
			}
		}
	}
}

func TestLogicalLengthHidesUncommittedTail(t *testing.T) {
	rows := testRows(2000)
	for _, spec := range []catalog.StorageSpec{
		{Orientation: catalog.OrientRow, Codec: "quicklz"},
		{Orientation: catalog.OrientColumn, Codec: "quicklz"},
		{Orientation: catalog.OrientParquet, Codec: "quicklz"},
	} {
		fs := testFS(t)
		// First transaction commits half the rows.
		sf := writeAll(t, fs, spec, rows[:1000])
		committed := sf
		// Second writer appends the rest but "does not commit": we keep
		// the old SegFile lengths.
		w, err := NewWriter(fs, spec, testSchema(), sf, hdfs.CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows[1000:] {
			w.Append(r)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got := scanAll(t, fs, spec, committed, allCols)
		if len(got) != 1000 {
			t.Fatalf("%s: visible rows = %d, want 1000 (uncommitted tail leaked)", spec.Orientation, len(got))
		}
	}
}

func TestAppendResumeAcrossSessions(t *testing.T) {
	rows := testRows(600)
	for _, spec := range []catalog.StorageSpec{
		{Orientation: catalog.OrientRow, Codec: "zlib-1"},
		{Orientation: catalog.OrientColumn, Codec: "zlib-1"},
		{Orientation: catalog.OrientParquet, Codec: "zlib-1"},
	} {
		fs := testFS(t)
		sf := writeAll(t, fs, spec, rows[:300])
		// Second committed append picks up from the recorded lengths.
		w, err := NewWriter(fs, spec, testSchema(), sf, hdfs.CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows[300:] {
			w.Append(r)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sf.LogicalLen, sf.ColLens = w.Lens()
		sf.Tuples = w.Tuples()
		if sf.Tuples != 600 {
			t.Errorf("%s: tuples = %d", spec.Orientation, sf.Tuples)
		}
		got := scanAll(t, fs, spec, sf, allCols)
		if len(got) != 600 {
			t.Fatalf("%s: rows = %d", spec.Orientation, len(got))
		}
		if !reflect.DeepEqual(got[599], rows[599]) {
			t.Errorf("%s: last row mismatch", spec.Orientation)
		}
	}
}

// flipInChunk flips a byte in the middle of chunk k's compressed bytes
// in the first group of the file at path.
func flipInChunk(t *testing.T, fs *hdfs.FileSystem, path string, k int) {
	t.Helper()
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dir fileDir
	if err := parseGroup(data, 0, &dir); err != nil {
		t.Fatal(err)
	}
	ch := dir.chunks[k]
	data[ch.off+4+int64(ch.compLen)/2] ^= 0xFF
	if err := fs.WriteFile(path, data, hdfs.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumDetectsCorruption: a byte flipped inside a compressed
// chunk that a scan walks fails the scan, in every format and whatever
// it projects. A zero-column COUNT(*) reads row counts off the headers
// and still does not answer from a corrupted file: it verifies every
// chunk of each group it parses in the one file it walks (CO's smallest
// column file).
func TestChecksumDetectsCorruption(t *testing.T) {
	rows := testRows(200)
	for _, o := range []string{catalog.OrientRow, catalog.OrientColumn, catalog.OrientParquet} {
		spec := catalog.StorageSpec{Orientation: o, Codec: "quicklz"}
		for _, proj := range [][]int{allCols, {1}, {}} {
			fs := testFS(t)
			sf := writeAll(t, fs, spec, rows)
			files := LaneFiles(spec, testSchema().Len(), sf)
			// The first projected column's chunk: CO's file of it, Parquet's
			// chunk of it; with no column, CO's smallest file and chunk 0.
			at := 0
			if len(proj) > 0 {
				at = proj[0]
			}
			path, chunk := files[0].Path, 0
			switch {
			case o == catalog.OrientColumn && len(proj) == 0:
				path = slices.MinFunc(files, func(a, b LaneFile) int { return cmp.Compare(a.Len, b.Len) }).Path
			case o == catalog.OrientColumn:
				path = files[at].Path
			case o == catalog.OrientParquet:
				chunk = at
			}
			flipInChunk(t, fs, path, chunk)
			if err := Scan(fs, spec, testSchema(), sf, proj, func(types.Row) error { return nil }); err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Errorf("%s Scan proj %v: %v", o, proj, err)
			}
			err := ScanBatches(fs, spec, testSchema(), sf, proj, func(b *types.Batch) error {
				types.PutBatch(b)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Errorf("%s ScanBatches proj %v: %v", o, proj, err)
			}
		}
	}
}

func TestEmptyFileScan(t *testing.T) {
	fs := testFS(t)
	for _, spec := range allSpecs {
		sf := catalog.SegFile{Path: "/data/none/0/1"}
		got := scanAll(t, fs, spec, sf, allCols)
		if len(got) != 0 {
			t.Errorf("%s: empty scan returned %d rows", spec.Orientation, len(got))
		}
	}
}

func TestCOZeroColumnProjection(t *testing.T) {
	rows := testRows(500)
	spec := catalog.StorageSpec{Orientation: catalog.OrientColumn, Codec: "quicklz"}
	fs := testFS(t)
	sf := writeAll(t, fs, spec, rows)
	n := 0
	if err := Scan(fs, spec, testSchema(), sf, []int{}, func(r types.Row) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("count(*) scan = %d", n)
	}
}

func TestColumnarCompressionBeatsRowOnWideRuns(t *testing.T) {
	// Rows whose columns individually compress well (runs per column)
	// but interleave badly row-wise.
	var rows []types.Row
	for i := 0; i < 20000; i++ {
		rows = append(rows, types.Row{
			types.NewInt64(int64(i / 1000)), // long runs
			types.NewDecimal(999, 2),
			types.NewString("CONSTANT"),
			types.NewDate(1000),
		})
	}
	fsRow, fsCol := testFS(t), testFS(t)
	ao := writeAll(t, fsRow, catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "zlib-1"}, rows)
	co := writeAll(t, fsCol, catalog.StorageSpec{Orientation: catalog.OrientColumn, Codec: "zlib-1"}, rows)
	var coTotal int64
	for _, l := range co.ColLens {
		coTotal += l
	}
	if coTotal >= ao.LogicalLen {
		t.Errorf("CO (%d bytes) not smaller than AO (%d bytes) on columnar-friendly data", coTotal, ao.LogicalLen)
	}
}

func TestWriterErrorsOnWidthMismatch(t *testing.T) {
	fs := testFS(t)
	for _, o := range []string{catalog.OrientColumn, catalog.OrientParquet} {
		w, err := NewWriter(fs, catalog.StorageSpec{Orientation: o, Codec: "none"}, testSchema(),
			catalog.SegFile{Path: "/data/w/" + o}, hdfs.CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(types.Row{types.NewInt64(1)}); err == nil {
			t.Errorf("%s: width mismatch accepted", o)
		}
		w.Close()
	}
}

func TestUnknownOrientationAndCodec(t *testing.T) {
	fs := testFS(t)
	if _, err := NewWriter(fs, catalog.StorageSpec{Orientation: "weird"}, testSchema(), catalog.SegFile{Path: "/x"}, hdfs.CreateOptions{}); err == nil {
		t.Error("unknown orientation accepted")
	}
	if _, err := NewWriter(fs, catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "bogus"}, testSchema(), catalog.SegFile{Path: "/x"}, hdfs.CreateOptions{}); err == nil {
		t.Error("unknown codec accepted")
	}
}

func BenchmarkAOWriteScan(b *testing.B)      { benchFormat(b, catalog.OrientRow, "quicklz") }
func BenchmarkCOWriteScan(b *testing.B)      { benchFormat(b, catalog.OrientColumn, "quicklz") }
func BenchmarkParquetWriteScan(b *testing.B) { benchFormat(b, catalog.OrientParquet, "quicklz") }

func benchFormat(b *testing.B, orientation, codec string) {
	rows := testRows(20000)
	spec := catalog.StorageSpec{Orientation: orientation, Codec: codec}
	fs, _ := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 1 << 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf := catalog.SegFile{Path: fmt.Sprintf("/bench/%d", i)}
		w, err := NewWriter(fs, spec, testSchema(), sf, hdfs.CreateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			w.Append(r)
		}
		w.Close()
		sf.LogicalLen, sf.ColLens = w.Lens()
		n := 0
		Scan(fs, spec, testSchema(), sf, []int{0, 1}, func(types.Row) error { n++; return nil })
		if n != len(rows) {
			b.Fatalf("scanned %d", n)
		}
	}
}
