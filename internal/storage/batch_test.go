package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// scanAllBatches collects every row a batch scan produces, cloning out
// of the arena.
func scanAllBatches(t *testing.T, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, proj []int) []types.Row {
	t.Helper()
	var out []types.Row
	err := ScanBatches(fs, spec, testSchema(), sf, proj, func(b *types.Batch) error {
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i).Clone())
		}
		types.PutBatch(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanBatchesMatchesScan(t *testing.T) {
	rows := testRows(5000)
	for _, spec := range allSpecs {
		t.Run(spec.Orientation+"/"+spec.Codec, func(t *testing.T) {
			fs := testFS(t)
			sf := writeAll(t, fs, spec, rows)
			for _, proj := range [][]int{allCols, {0}, {2, 0}} {
				want := scanAll(t, fs, spec, sf, proj)
				got := scanAllBatches(t, fs, spec, sf, proj)
				if len(got) != len(want) {
					t.Fatalf("proj %v: %d rows, want %d", proj, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("proj %v row %d: %v != %v", proj, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestScanBatchesZeroColumnProjection(t *testing.T) {
	rows := testRows(500)
	for _, spec := range []catalog.StorageSpec{
		{Orientation: catalog.OrientRow, Codec: "quicklz"},
		{Orientation: catalog.OrientColumn, Codec: "quicklz"},
		{Orientation: catalog.OrientParquet, Codec: "quicklz"},
	} {
		fs := testFS(t)
		sf := writeAll(t, fs, spec, rows)
		n := 0
		err := ScanBatches(fs, spec, testSchema(), sf, []int{}, func(b *types.Batch) error {
			n += b.Len()
			types.PutBatch(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(rows) {
			t.Errorf("%s: count(*) batch scan = %d", spec.Orientation, n)
		}
	}
}

func TestScanBatchesEmptyFile(t *testing.T) {
	fs := testFS(t)
	for _, spec := range allSpecs {
		sf := catalog.SegFile{Path: "/data/none/0/1"}
		err := ScanBatches(fs, spec, testSchema(), sf, allCols, func(b *types.Batch) error {
			t.Errorf("%s: batch from empty file", spec.Orientation)
			types.PutBatch(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// benchScanRows builds a written segment file for the scan benchmarks.
func benchScanSetup(b *testing.B, orientation string) (*hdfs.FileSystem, catalog.StorageSpec, catalog.SegFile, int) {
	b.Helper()
	rows := testRows(20000)
	spec := catalog.StorageSpec{Orientation: orientation, Codec: "quicklz"}
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	sf := catalog.SegFile{Path: "/bench/scan"}
	w, err := NewWriter(fs, spec, testSchema(), sf, hdfs.CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	sf.LogicalLen, sf.ColLens = w.Lens()
	return fs, spec, sf, len(rows)
}

func benchScanFormat(b *testing.B, orientation string) {
	fs, spec, sf, want := benchScanSetup(b, orientation)
	proj := []int{0, 1}
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := Scan(fs, spec, testSchema(), sf, proj, func(types.Row) error { n++; return nil })
			if err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("scanned %d", n)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := ScanBatches(fs, spec, testSchema(), sf, proj, func(batch *types.Batch) error {
				n += batch.Len()
				types.PutBatch(batch)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("scanned %d", n)
			}
		}
	})
}

// benchLowCardSetup writes a 20k-row table whose filter column holds 8
// values in contiguous runs — the clustered low-cardinality shape where
// pages RLE/dict-encode, per-page zone maps are tight, and the encoded
// path evaluates the predicate per run or distinct value instead of per
// row.
func benchLowCardSetup(b *testing.B, orientation string) (*hdfs.FileSystem, catalog.StorageSpec, catalog.SegFile, *types.Schema) {
	b.Helper()
	schema := types.NewSchema(
		types.Column{Name: "g", Kind: types.KindInt64},
		types.Column{Name: "v", Kind: types.KindInt64},
		types.Column{Name: "s", Kind: types.KindString},
	)
	spec := catalog.StorageSpec{Orientation: orientation, Codec: "quicklz"}
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	sf := catalog.SegFile{Path: "/bench/lowcard"}
	w, err := NewWriter(fs, spec, schema, sf, hdfs.CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cats := make([]types.Datum, 8)
	for i := range cats {
		cats[i] = types.NewString(fmt.Sprintf("cat-%d", i))
	}
	for i := 0; i < 20000; i++ {
		g := i / 2500 // 8 runs of 2500
		if err := w.Append(types.Row{types.NewInt64(int64(g)), types.NewInt64(int64(i)), cats[g]}); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	sf.LogicalLen, sf.ColLens = w.Lens()
	return fs, spec, sf, schema
}

// benchEncodedFilter pits the materialize-then-filter batch path
// against the vector path (zone-map page skipping, the filter kernels
// on the scan's vectors, then materializing only the survivors) on a
// selective low-cardinality predicate — the same pipeline the executor
// builds from a scan filter. Both deliver the same decoded rows to the
// consumer.
func benchEncodedFilter(b *testing.B, orientation string) {
	fs, spec, sf, schema := benchLowCardSetup(b, orientation)
	proj := []int{0, 1, 2}
	pred := expr.NewBinOp(expr.OpEq, &expr.ColRef{Idx: 0, K: types.KindInt64}, expr.NewConst(types.NewInt64(3)))
	zpreds := []expr.ColCmp{{Col: 0, Op: expr.OpEq, Val: types.NewInt64(3)}}
	const want = 20000 / 8
	b.Run("filter-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := ScanBatches(fs, spec, schema, sf, proj, func(batch *types.Batch) error {
				defer types.PutBatch(batch)
				for r := 0; r < batch.Len(); r++ {
					pass, err := expr.EvalBool(pred, batch.Row(r))
					if err != nil {
						return err
					}
					if pass {
						n++
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("filtered to %d", n)
			}
		}
	})
	b.Run("encoded", func(b *testing.B) {
		filter := expr.CompileFilter(pred)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			out := types.GetBatch(0)
			err := ScanVecBatches(fs, spec, schema, sf, proj, zpreds, nil, func(vb *types.VecBatch) error {
				defer types.PutVecBatch(vb)
				if err := filter.Apply(vb); err != nil {
					return err
				}
				if vb.SelCount() == 0 {
					return nil
				}
				vb.Materialize(out)
				n += out.Len()
				return nil
			})
			types.PutBatch(out)
			if err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("filtered to %d", n)
			}
		}
	})
}

// benchWideScan batch-scans a 16-column lineitem-shaped table (20k
// rows, quicklz) with a query-sized projection and with every column:
// the pair is what column pruning buys one scan on this format. The
// projected scan then runs through a segment block cache, emptied
// before every scan (cold: what a first read pays, directory and
// admission bookkeeping included) and left warm (every vector a hit).
func benchWideScan(b *testing.B, orientation, name string, proj []int) {
	kinds := []types.Kind{
		types.KindInt64, types.KindInt64, types.KindInt64, types.KindInt32,
		types.KindDecimal, types.KindDecimal, types.KindDecimal, types.KindDecimal,
		types.KindString, types.KindString, types.KindDate, types.KindDate, types.KindDate,
		types.KindString, types.KindString, types.KindString,
	}
	schema := types.NewSchema()
	for i, k := range kinds {
		schema.Columns = append(schema.Columns, types.Column{Name: fmt.Sprintf("c%d", i), Kind: k, Scale: 2})
	}
	const want = 20000
	spec := catalog.StorageSpec{Orientation: orientation, Codec: "quicklz"}
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	sf := catalog.SegFile{Path: "/bench/wide"}
	w, err := NewWriter(fs, spec, schema, sf, hdfs.CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < want; i++ {
		row := make(types.Row, len(kinds))
		for c, k := range kinds {
			switch k {
			case types.KindInt64:
				row[c] = types.NewInt64(int64(i*7 + c))
			case types.KindInt32:
				row[c] = types.NewInt32(int32(i % 7))
			case types.KindDecimal:
				row[c] = types.NewDecimal(r.Int63n(10000000), 2)
			case types.KindDate:
				row[c] = types.NewDate(int32(8000 + r.Intn(2500)))
			default:
				// Flags are one byte; the last column is the comment.
				n := 1
				if c >= 13 {
					n = 10 + r.Intn(10*(c-12))
				}
				row[c] = types.NewString(strings.Repeat("x", n-1) + string(rune('A'+r.Intn(3))))
			}
		}
		if err := w.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	sf.LogicalLen, sf.ColLens = w.Lens()
	for _, v := range []struct {
		name string
		proj []int
	}{{name, proj}, {"full16", schema.AllCols()}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				err := ScanBatches(fs, spec, schema, sf, v.proj, func(batch *types.Batch) error {
					n += batch.Len()
					types.PutBatch(batch)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if n != want {
					b.Fatalf("scanned %d", n)
				}
			}
		})
	}
	cache := NewBlockCache()
	cached := func(b *testing.B) {
		n := 0
		out := types.GetBatch(0)
		err := cache.ScanVecBatches(fs, spec, schema, sf, proj, nil, nil, func(vb *types.VecBatch) error {
			defer types.PutVecBatch(vb)
			vb.Materialize(out)
			n += out.Len()
			return nil
		})
		types.PutBatch(out)
		if err != nil || n != want {
			b.Fatalf("scanned %d: %v", n, err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache.Drop()
			cached(b)
		}
	})
	b.Run("warm", func(b *testing.B) {
		cached(b)
		cached(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cached(b)
		}
	})
}

// BenchmarkScanAO compares row-at-a-time and batch AO scans, and a
// point-lookup-sized projection of a wide table against all of it.
func BenchmarkScanAO(b *testing.B) {
	benchScanFormat(b, catalog.OrientRow)
	benchWideScan(b, catalog.OrientRow, "proj3of16", []int{0, 5, 13})
}

// BenchmarkScanCO compares row-at-a-time, batch, and encoded CO scans,
// and Q6's projection of a wide table against all of it.
func BenchmarkScanCO(b *testing.B) {
	benchScanFormat(b, catalog.OrientColumn)
	benchEncodedFilter(b, catalog.OrientColumn)
	benchWideScan(b, catalog.OrientColumn, "proj4of16", []int{4, 5, 6, 10})
}

// BenchmarkScanParquet compares row-at-a-time and batch Parquet scans.
func BenchmarkScanParquet(b *testing.B) { benchScanFormat(b, catalog.OrientParquet) }

// TestProjectionParity: on every format and on both sides of the codec,
// a subset, a reordered, a repeated and an empty projection each equal
// the full scan projected afterwards — through the row, the batch and
// (columnar formats) the encoded-vector readers. A nil projection is the
// empty one: rows of width zero, never "all columns".
func TestProjectionParity(t *testing.T) {
	rows := testRows(3000)
	for _, orientation := range []string{catalog.OrientRow, catalog.OrientColumn, catalog.OrientParquet} {
		for _, codec := range []string{"none", "quicklz"} {
			spec := catalog.StorageSpec{Orientation: orientation, Codec: codec}
			t.Run(orientation+"/"+codec, func(t *testing.T) {
				fs := testFS(t)
				sf := writeAll(t, fs, spec, rows)
				full := scanAll(t, fs, spec, sf, allCols)
				if len(full) != len(rows) {
					t.Fatalf("full scan returned %d rows, wrote %d", len(full), len(rows))
				}
				cache := NewBlockCache()
				for _, proj := range [][]int{nil, {}, {2}, {1, 3}, {3, 0}, {2, 0, 2}, allCols} {
					want := make([]types.Row, len(full))
					for i, r := range full {
						want[i] = make(types.Row, len(proj))
						for j, c := range proj {
							want[i][j] = r[c]
						}
					}
					// The cached reader is asked three times: its first
					// sight of the keys, the pass that admits them, the
					// pass that is served from memory.
					readers := map[string][]types.Row{
						"Scan":           scanAll(t, fs, spec, sf, proj),
						"ScanBatches":    scanAllBatches(t, fs, spec, sf, proj),
						"ScanVecBatches": scanAllVec(t, fs, spec, sf, proj, nil, nil),
						"cache, cold":    scanAllCached(t, cache, fs, spec, sf, proj, nil, nil),
						"cache, filling": scanAllCached(t, cache, fs, spec, sf, proj, nil, nil),
						"cache, warm":    scanAllCached(t, cache, fs, spec, sf, proj, nil, nil),
					}
					cache.Drop()
					readers["cache, dropped"] = scanAllCached(t, cache, fs, spec, sf, proj, nil, nil)
					for name, got := range readers {
						if len(got) != len(want) {
							t.Fatalf("%s proj %v: %d rows, want %d", name, proj, len(got), len(want))
						}
						for i := range want {
							if len(got[i]) != len(proj) || (len(proj) > 0 && !reflect.DeepEqual(got[i], want[i])) {
								t.Fatalf("%s proj %v row %d: %v != %v", name, proj, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestAOTruncatedSkippedColumnIsCorruption: the projected row walk
// steps over unwanted columns without decoding them, and must notice a
// row that ends inside one as surely as a full decode would. The block
// is framed over the short payload, so its checksum is good and only
// the walk can tell.
func TestAOTruncatedSkippedColumnIsCorruption(t *testing.T) {
	fs := testFS(t)
	row := types.Row{types.NewInt64(1), types.NewDecimal(43955, 2), types.NewString("a name long enough to cut"), types.NewDate(10000)}
	raw := types.EncodeRow(nil, row)
	last := len(types.EncodeDatum(nil, row[3]))
	raw = raw[:len(raw)-last-2] // cut inside column 2, the string
	for _, codec := range []string{"none", "quicklz"} {
		spec := catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: codec}
		c, err := compress.Lookup(codec)
		if err != nil {
			t.Fatal(err)
		}
		block := appendBlock(nil, c, 1, raw)
		sf := catalog.SegFile{Path: "/data/cut/" + codec, LogicalLen: int64(len(block))}
		if err := fs.WriteFile(sf.Path, block, hdfs.CreateOptions{}); err != nil {
			t.Fatal(err)
		}
		proj := []int{0, 1} // column 2 is only skipped
		if err := Scan(fs, spec, testSchema(), sf, proj, func(types.Row) error { return nil }); err == nil {
			t.Errorf("%s: row scan accepted a row truncated inside a skipped column", codec)
		}
		err = ScanBatches(fs, spec, testSchema(), sf, proj, func(b *types.Batch) error {
			types.PutBatch(b)
			return nil
		})
		if err == nil {
			t.Errorf("%s: batch scan accepted a row truncated inside a skipped column", codec)
		}
	}
}
