package executor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/storage"
	"hawq/internal/types"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	var b Bloom
	rng := rand.New(rand.NewSource(7))
	hash := func(d types.Datum) uint64 { return keyHash(&d) }
	added := make([]uint64, 0, 2000)
	for i := 0; i < 2000; i++ {
		h := hash(types.NewInt64(rng.Int63()))
		b.Add(h)
		added = append(added, h)
	}
	for _, h := range added {
		if !b.MayContain(h) {
			t.Fatal("false negative")
		}
	}
	// False-positive rate should stay modest at this fill level.
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.MayContain(hash(types.NewString(fmt.Sprintf("absent-%d", i)))) {
			fp++
		}
	}
	if fp > 1500 {
		t.Errorf("false positive rate %d/10000 too high", fp)
	}
	// Merge is a union.
	var c, merged Bloom
	h := hash(types.NewInt64(-12345))
	c.Add(h)
	merged.Merge(&b)
	merged.Merge(&c)
	if !merged.MayContain(h) || !merged.MayContain(added[0]) {
		t.Error("merge lost a member")
	}
}

// TestRTFHashNormalizes pins that an INT32 build key and an INT64 probe
// value hash identically (the filter's hash is the join key's).
func TestRTFHashNormalizes(t *testing.T) {
	i32, i64 := types.NewInt32(7), types.NewInt64(7)
	if keyHash(&i32) != keyHash(&i64) {
		t.Error("INT32 and INT64 of the same value hash differently")
	}
}

func TestFilterHub(t *testing.T) {
	hub := NewFilterHub()
	hub.Expect(1, 2)
	if hub.Lookup(1) != nil {
		t.Fatal("filter visible before any publish")
	}
	var a, b Bloom
	one, two := types.NewInt64(1), types.NewInt64(2)
	ha, hb := keyHash(&one), keyHash(&two)
	a.Add(ha)
	b.Add(hb)
	if err := hub.Publish(1, &a); err != nil {
		t.Fatal(err)
	}
	if hub.Lookup(1) != nil {
		t.Fatal("filter visible with one of two publishers")
	}
	if err := hub.Publish(1, &b); err != nil {
		t.Fatal(err)
	}
	got := hub.Lookup(1)
	if got == nil {
		t.Fatal("filter not visible after all publishers")
	}
	if !got.MayContain(ha) || !got.MayContain(hb) {
		t.Error("merged filter is not the union")
	}
	if err := hub.Publish(1, &a); err == nil {
		t.Error("over-publish not rejected")
	}
	// Unregistered IDs are dropped silently and never become visible.
	if err := hub.Publish(99, &a); err != nil {
		t.Errorf("unregistered publish errored: %v", err)
	}
	if hub.Lookup(99) != nil {
		t.Error("unregistered filter visible")
	}
	// nil hub is inert.
	var nilHub *FilterHub
	nilHub.Expect(1, 1)
	if err := nilHub.Publish(1, &a); err != nil {
		t.Error(err)
	}
	if nilHub.Lookup(1) != nil {
		t.Error("nil hub returned a filter")
	}
}

// writeCOTable writes one single-segment CO table and returns its scan
// ingredients.
func writeCOTable(t testing.TB, fs *hdfs.FileSystem, oid int64, name string, schema *types.Schema, rows []types.Row) (*catalog.TableDesc, []catalog.SegFile) {
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
	return desc, []catalog.SegFile{sf}
}

// runtimeFilterJoin builds probe-scan ⋈ build-values with one runtime
// filter wired between them.
func runtimeFilterJoin(desc *catalog.TableDesc, segFiles []catalog.SegFile, build *plan.Values, withFilter bool) *plan.HashJoin {
	scan := &plan.Scan{
		Table: desc, Proj: []int{0, 1}, SegFiles: segFiles,
		Schema: intsSchema("k", "v"),
	}
	j := &plan.HashJoin{
		Kind: plan.InnerJoin, Left: scan, Right: build,
		LeftKeys: []int{0}, RightKeys: []int{0},
		Schema: scan.Schema.Concat(build.Schema),
	}
	if withFilter {
		scan.RuntimeFilters = []plan.RuntimeFilterTarget{{ID: 1, Col: 0}}
		j.RuntimeFilters = []plan.RuntimeFilterSpec{{ID: 1, BuildKey: 0}}
	}
	return j
}

// TestRuntimeFilterJoin checks the full loop: the build side publishes
// its bloom, the probe-side scan consults it before decode, rows the
// build can't match are shed (observable in the counter), and results
// are identical to the unfiltered join.
func TestRuntimeFilterJoin(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 5000)
	for i := 0; i < 5000; i++ {
		rows = append(rows, types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i % 97))})
	}
	desc, segFiles := writeCOTable(t, fs, 1, "probe", intsSchema("k", "v"), rows)
	build := valuesNode(intsSchema("bk", "bv"), []int64{10, 1}, []int64{11, 2}, []int64{4800, 3})

	run := func(withFilter bool) ([][]int64, int64) {
		counter := obs.GetCounter("executor.rows_removed_by_runtime_filter")
		before := counter.Value()
		ctx := &Context{Segment: 0, FS: fs}
		if withFilter {
			ctx.Filters = NewFilterHub()
			ctx.Filters.Expect(1, 1)
		}
		got := rowsToInts(collect(t, ctx, runtimeFilterJoin(desc, segFiles, build, withFilter)))
		sort.Slice(got, func(i, j int) bool { return fmt.Sprint(got[i]) < fmt.Sprint(got[j]) })
		return got, counter.Value() - before
	}

	plain, removedOff := run(false)
	filtered, removedOn := run(true)
	if len(plain) != 3 {
		t.Fatalf("unfiltered join returned %d rows, want 3", len(plain))
	}
	if !reflect.DeepEqual(plain, filtered) {
		t.Fatalf("runtime filter changed results:\noff=%v\non=%v", plain, filtered)
	}
	if removedOff != 0 {
		t.Errorf("counter moved %d with no hub", removedOff)
	}
	// 5000 probe rows, 3 joinable: nearly everything should be shed
	// before decode (modulo bloom false positives).
	if removedOn < 4000 {
		t.Errorf("runtime filter removed only %d of ~4997 removable rows", removedOn)
	}
}

// TestRuntimeFilterStats checks the scan attributes its removals (and
// zone-map page skips) to its OpStats slot for EXPLAIN ANALYZE.
func TestRuntimeFilterStats(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 5000)
	for i := 0; i < 5000; i++ {
		rows = append(rows, types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i))})
	}
	desc, segFiles := writeCOTable(t, fs, 2, "probe2", intsSchema("k", "v"), rows)
	build := valuesNode(intsSchema("bk", "bv"), []int64{42, 1})
	j := runtimeFilterJoin(desc, segFiles, build, true)
	ctx := &Context{Segment: 0, FS: fs}
	ctx.Filters = NewFilterHub()
	ctx.Filters.Expect(1, 1)
	ctx.Stats = NewStatsRecorder(nil, j, 0, 0)
	op, err := Build(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if err := Drain(nil, op, func(types.Row) error { return nil }); err != nil {
		t.Fatal(err)
	}
	ss := ctx.Stats.Stats()
	var rtf int64
	for _, opst := range ss.Ops {
		rtf += opst.RTFilterRows
	}
	if rtf < 4000 {
		t.Errorf("OpStats recorded %d runtime-filter removals, want ~4999", rtf)
	}
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

// BenchmarkJoinRuntimeFilter measures the probe-side effect of runtime
// bloom filters: a selective build side against a 50k-row CO probe
// table, with the filter off and on.
func BenchmarkJoinRuntimeFilter(b *testing.B) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]types.Row, 0, 50000)
	for i := 0; i < 50000; i++ {
		rows = append(rows, types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i % 1000))})
	}
	desc, segFiles := writeCOTable(b, fs, 1, "probe", intsSchema("k", "v"), rows)
	var buildRows [][]int64
	for i := 0; i < 100; i++ {
		buildRows = append(buildRows, []int64{int64(i * 13), int64(i)})
	}
	build := valuesNode(intsSchema("bk", "bv"), buildRows...)

	run := func(b *testing.B, withFilter bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := &Context{Segment: 0, FS: fs}
			if withFilter {
				ctx.Filters = NewFilterHub()
				ctx.Filters.Expect(1, 1)
			}
			op, err := Build(ctx, runtimeFilterJoin(desc, segFiles, build, withFilter))
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			if err := Drain(nil, op, func(types.Row) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("join returned nothing")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// TestScanStatsIdenticalColdAndWarm runs a scan that zone maps prune
// and a same-slice runtime filter narrows through a segment block
// cache: first touch, the pass that admits, the pass served from
// memory. Rows, pages skipped and runtime-filter removals must not
// depend on which it was — zone bytes live in the cached directory, and
// blooms and kernels run on cached vectors as on fresh ones — for a
// column table and for a row table (no zone maps there).
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
		build := valuesNode(intsSchema("bk", "bv"), []int64{42, 1}, []int64{4242, 2}, []int64{19000, 3})
		var first obs.OpStats
		for pass := 0; pass < 3; pass++ {
			j := runtimeFilterJoin(tc.desc, tc.files, build, true)
			j.Left.(*plan.Scan).Filter = expr.NewBinOp(expr.OpLt, &expr.ColRef{Idx: 0, K: types.KindInt64}, expr.NewConst(types.NewInt64(5000)))
			ctx := &Context{Segment: 0, FS: fs, Cache: cache, Filters: NewFilterHub()}
			ctx.Filters.Expect(1, 1)
			ctx.Stats = NewStatsRecorder(nil, j, 0, 0)
			op, err := Build(ctx, j)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := Drain(nil, op, func(types.Row) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			var scan obs.OpStats
			for _, st := range ctx.Stats.Stats().Ops {
				if strings.HasPrefix(st.Label, "Table Scan") {
					scan = st
				}
			}
			name := tc.desc.Storage.Orientation
			if n != 2 {
				t.Fatalf("%s pass %d: %d joined rows, want 2", name, pass, n)
			}
			switch pass {
			case 0:
				first = scan
				if scan.CacheHits != 0 || scan.CacheMisses == 0 || scan.RTFilterRows == 0 {
					t.Errorf("%s cold pass: %+v", name, scan)
				}
				if name == catalog.OrientColumn && scan.PagesSkipped == 0 {
					t.Errorf("%s: the filter skipped no page", name)
				}
			default:
				if scan.Rows != first.Rows || scan.PagesSkipped != first.PagesSkipped || scan.RTFilterRows != first.RTFilterRows {
					t.Errorf("%s pass %d: rows %d pages_skipped %d rtfilter %d, cold pass had %d %d %d", name, pass,
						scan.Rows, scan.PagesSkipped, scan.RTFilterRows, first.Rows, first.PagesSkipped, first.RTFilterRows)
				}
				if pass == 2 && (scan.CacheMisses != 0 || scan.CacheHits != first.CacheMisses) {
					t.Errorf("%s warm pass: cache=%d/%d, cold pass missed %d", name, scan.CacheHits, scan.CacheMisses, first.CacheMisses)
				}
			}
		}
	}
}
