package executor

import (
	"fmt"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// writeCOTable writes one single-segment CO table and returns its scan
// ingredients. A block ends every blockRows rows, if given, and
// otherwise where the writer ends it.
func writeCOTable(t testing.TB, fs *hdfs.FileSystem, oid int64, name string, schema *types.Schema, rows []types.Row, blockRows ...int) (*catalog.TableDesc, []catalog.SegFile) {
	t.Helper()
	desc := &catalog.TableDesc{
		OID: oid, Name: name, Schema: schema,
		Storage: catalog.StorageSpec{Orientation: catalog.OrientColumn, Codec: "quicklz"},
	}
	sf := catalog.SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: fmt.Sprintf("/d/%d/0/1", oid)}
	w, err := storage.NewWriter(fs, desc.Storage, schema, sf, hdfs.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if len(blockRows) > 0 && (i+1)%blockRows[0] == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sf.LogicalLen, sf.ColLens = w.Lens()
	sf.Tuples = w.Tuples()
	return desc, []catalog.SegFile{sf}
}

// TestZoneMapStats checks pages_skipped reaches OpStats through the
// scan's pushed-down predicate.
func TestZoneMapStats(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 20000)
	for i := 0; i < 20000; i++ { // sorted key: tight zone maps
		rows = append(rows, types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i % 7))})
	}
	desc, segFiles := writeCOTable(t, fs, 3, "zoned", intsSchema("k", "v"), rows)
	scan := &plan.Scan{
		Table: desc, Proj: []int{0, 1}, SegFiles: segFiles,
		Filter: expr.NewBinOp(expr.OpLt, &expr.ColRef{Idx: 0, K: types.KindInt64}, expr.NewConst(types.NewInt64(100))),
		Schema: intsSchema("k", "v"),
	}
	ctx := &Context{Segment: 0, FS: fs}
	ctx.Stats = NewStatsRecorder(nil, scan, 0, 0)
	op, err := Build(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Drain(nil, op, func(types.Row) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("scan returned %d rows, want 100", n)
	}
	ss := ctx.Stats.Stats()
	if len(ss.Ops) == 0 || ss.Ops[0].PagesSkipped == 0 {
		t.Error("no pages skipped recorded on a selective sorted-key scan")
	}
}

// TestScanStatsIdenticalColdAndWarm runs a scan that zone maps prune
// through a segment block cache: first touch, the pass that admits, the
// pass served from memory. Rows and pages skipped must not depend on
// which it was — zone bytes live in the cached directory, and kernels
// run on cached vectors as on fresh ones — for a column table and for a
// row table (no zone maps there).
func TestScanStatsIdenticalColdAndWarm(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 20000)
	for i := 0; i < 20000; i++ { // sorted key: tight zone maps
		rows = append(rows, types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i % 7))})
	}
	co, coFiles := writeCOTable(t, fs, 7, "zoned_co", intsSchema("k", "v"), rows)
	ao, aoFiles := writeCOTable(t, fs, 8, "zoned_ao", intsSchema("k", "v"), nil)
	ao.Storage = catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "quicklz"}
	w, err := storage.NewWriter(fs, ao.Storage, ao.Schema, aoFiles[0], hdfs.CreateOptions{})
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
	aoFiles[0].LogicalLen, _ = w.Lens()
	aoFiles[0].Tuples = w.Tuples()

	for _, tc := range []struct {
		desc  *catalog.TableDesc
		files []catalog.SegFile
	}{{co, coFiles}, {ao, aoFiles}} {
		cache := storage.NewBlockCache()
		var first obs.OpStats
		for pass := 0; pass < 3; pass++ {
			scan := &plan.Scan{
				Table: tc.desc, Proj: []int{0, 1}, SegFiles: tc.files,
				Filter: expr.NewBinOp(expr.OpLt, &expr.ColRef{Idx: 0, K: types.KindInt64}, expr.NewConst(types.NewInt64(5000))),
				Schema: intsSchema("k", "v"),
			}
			ctx := &Context{Segment: 0, FS: fs, Cache: cache}
			ctx.Stats = NewStatsRecorder(nil, scan, 0, 0)
			op, err := Build(ctx, scan)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := Drain(nil, op, func(types.Row) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			st := ctx.Stats.Stats().Ops[0]
			name := tc.desc.Storage.Orientation
			if n != 5000 {
				t.Fatalf("%s pass %d: %d rows, want 5000", name, pass, n)
			}
			switch pass {
			case 0:
				first = st
				if st.CacheHits != 0 || st.CacheMisses == 0 {
					t.Errorf("%s cold pass: %+v", name, st)
				}
				if name == catalog.OrientColumn && st.PagesSkipped == 0 {
					t.Errorf("%s: the filter skipped no page", name)
				}
			default:
				if st.Rows != first.Rows || st.PagesSkipped != first.PagesSkipped {
					t.Errorf("%s pass %d: rows %d pages_skipped %d, cold pass had %d %d", name, pass,
						st.Rows, st.PagesSkipped, first.Rows, first.PagesSkipped)
				}
				if pass == 2 && (st.CacheMisses != 0 || st.CacheHits != first.CacheMisses) {
					t.Errorf("%s warm pass: cache=%d/%d, cold pass missed %d", name, st.CacheHits, st.CacheMisses, first.CacheMisses)
				}
			}
		}
	}
}
