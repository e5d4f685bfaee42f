package stinger

import (
	"math"
	"strconv"
	"testing"
	"time"

	"hawq/internal/engine"
	"hawq/internal/hdfs"
	"hawq/internal/tpch"
	"hawq/internal/types"
)

func testConfig(t testing.TB) Config {
	return Config{
		MapTasks:         2,
		ReduceTasks:      2,
		Workers:          4,
		ContainerStartup: time.Millisecond,
		SpillDir:         t.TempDir(),
	}
}

func newStinger(t testing.TB) *Engine {
	t.Helper()
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(fs, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func intSchema(names ...string) *types.Schema {
	cols := make([]types.Column, len(names))
	for i, n := range names {
		cols[i] = types.Column{Name: n, Kind: types.KindInt64}
	}
	return &types.Schema{Columns: cols}
}

func intRows(vals ...[]int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, v := range vals {
		row := make(types.Row, len(v))
		for j, x := range v {
			row[j] = types.NewInt64(x)
		}
		out[i] = row
	}
	return out
}

func TestMapReduceWordCountStyle(t *testing.T) {
	e := newStinger(t)
	if err := e.LoadTable("nums", intSchema("g", "v"), intRows(
		[]int64{1, 10}, []int64{2, 20}, []int64{1, 5}, []int64{2, 1}, []int64{3, 7},
	)); err != nil {
		t.Fatal(err)
	}
	rows, _, err := e.Query("SELECT g, sum(v), count(*) FROM nums GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1|15|2", "2|21|2", "3|7|1"}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for i, w := range want {
		if rows[i].String() != w {
			t.Errorf("row %d = %s, want %s", i, rows[i], w)
		}
	}
	if e.JobsRun < 2 {
		t.Errorf("expected at least agg+sort jobs, ran %d", e.JobsRun)
	}
}

func TestJoinAndLeftJoin(t *testing.T) {
	e := newStinger(t)
	e.LoadTable("a", intSchema("k", "x"), intRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}))
	e.LoadTable("b", intSchema("k", "y"), intRows([]int64{1, 100}, []int64{3, 300}, []int64{3, 301}))
	rows, _, err := e.Query("SELECT a.k, x, y FROM a, b WHERE a.k = b.k ORDER BY x, y")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1|10|100", "3|30|300", "3|30|301"}
	for i, w := range want {
		if rows[i].String() != w {
			t.Errorf("row %d = %s, want %s", i, rows[i], w)
		}
	}
	// Left outer join with an ON filter.
	rows, _, err = e.Query(`SELECT a.k, count(y) FROM a LEFT OUTER JOIN b ON a.k = b.k AND y > 300
		GROUP BY a.k ORDER BY a.k`)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"1|0", "2|0", "3|1"}
	for i, w := range want {
		if rows[i].String() != w {
			t.Errorf("left join row %d = %s, want %s", i, rows[i], w)
		}
	}
}

func TestScalarSubqueryAndSemiJoin(t *testing.T) {
	e := newStinger(t)
	e.LoadTable("t", intSchema("k", "v"), intRows(
		[]int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{4, 40}))
	e.LoadTable("s", intSchema("k"), intRows([]int64{2}, []int64{4}, []int64{9}))
	rows, _, err := e.Query("SELECT count(*) FROM t WHERE v > (SELECT avg(v) FROM t)")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 2 {
		t.Fatalf("scalar subquery = %v", rows[0])
	}
	rows, _, err = e.Query("SELECT count(*) FROM t WHERE k IN (SELECT k FROM s)")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 2 {
		t.Fatalf("IN = %v", rows[0])
	}
	rows, _, err = e.Query("SELECT count(*) FROM t WHERE k NOT IN (SELECT k FROM s)")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 2 {
		t.Fatalf("NOT IN = %v", rows[0])
	}
	rows, _, err = e.Query("SELECT count(*) FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.k = t.k)")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 2 {
		t.Fatalf("EXISTS = %v", rows[0])
	}
}

// loadBoth loads the same TPC-H data into a HAWQ engine and a Stinger
// engine.
func loadBoth(t testing.TB, sf float64) (*engine.Engine, *Engine) {
	t.Helper()
	he, err := engine.New(engine.Config{Segments: 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { he.Close() })
	if _, err := tpch.Load(he, tpch.LoadOptions{Scale: tpch.Scale{SF: sf}, Orientation: "row"}); err != nil {
		t.Fatal(err)
	}
	se := newStinger(t)
	if err := LoadTPCH(se, tpch.Scale{SF: sf}); err != nil {
		t.Fatal(err)
	}
	return he, se
}

// compareCell compares HAWQ and Stinger cells with numeric tolerance.
func compareCell(a, b types.Datum) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	as, bs := a.String(), b.String()
	if as == bs {
		return true
	}
	af, errA := strconv.ParseFloat(as, 64)
	bf, errB := strconv.ParseFloat(bs, 64)
	if errA == nil && errB == nil {
		if af == bf {
			return true
		}
		diff := math.Abs(af - bf)
		scale := math.Max(math.Abs(af), math.Abs(bf))
		return diff <= 1e-6*scale
	}
	return false
}

func TestTPCHResultsMatchHAWQ(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine comparison is slow")
	}
	// The paper's figure queries (§8.2.2) plus every other one Stinger
	// runs: Q16's NOT IN, Q17's and Q20's derived tables included.
	he, se := loadBoth(t, 0.001)
	matchHAWQ(t, he, se, 0.001, []int{1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22})
	// At SF 0.001 Q18's HAVING keeps no order; at 0.005 it keeps one. The
	// queries predicate placement (DESIGN.md §18) and costing from
	// statistics (§19: build sides, join order, magic sets) replan run
	// here again; Q21's two grouped derived tables get magic sets.
	he, se = loadBoth(t, 0.005)
	if rows := matchHAWQ(t, he, se, 0.005, []int{3, 7, 10, 13, 16, 17, 18, 20, 21}); rows[18] == 0 {
		t.Error("Q18 returns no row at SF 0.005: the cross-check tests nothing")
	}
}

// matchHAWQ runs each query on both engines and compares the answers row
// for row, cell for cell; it returns each query's row count.
func matchHAWQ(t *testing.T, he *engine.Engine, se *Engine, sf float64, queries []int) map[int]int {
	t.Helper()
	rows := map[int]int{}
	hs := he.NewSession()
	for _, q := range queries {
		sql := tpch.Queries[q]
		hres, err := hs.Query(sql)
		if err != nil {
			t.Errorf("SF %v HAWQ Q%d: %v", sf, q, err)
			continue
		}
		srows, _, err := se.Query(sql)
		if err != nil {
			t.Errorf("SF %v Stinger Q%d: %v", sf, q, err)
			continue
		}
		rows[q] = len(hres.Rows)
		if len(hres.Rows) != len(srows) {
			t.Errorf("SF %v Q%d: HAWQ %d rows, Stinger %d rows", sf, q, len(hres.Rows), len(srows))
			continue
		}
		for i := range srows {
			if len(hres.Rows[i]) != len(srows[i]) {
				t.Errorf("SF %v Q%d row %d width mismatch", sf, q, i)
				break
			}
			for c := range srows[i] {
				if !compareCell(hres.Rows[i][c], srows[i][c]) {
					t.Errorf("SF %v Q%d row %d col %d: HAWQ %s, Stinger %s", sf, q, i, c, hres.Rows[i][c], srows[i][c])
					break
				}
			}
		}
	}
	return rows
}

func TestJobCountReflectsQueryComplexity(t *testing.T) {
	e := newStinger(t)
	e.LoadTable("a", intSchema("k", "x"), intRows([]int64{1, 10}))
	e.LoadTable("b", intSchema("k", "y"), intRows([]int64{1, 100}))
	e.LoadTable("c", intSchema("k", "z"), intRows([]int64{1, 1000}))
	before := e.JobsRun
	if _, _, err := e.Query("SELECT sum(z) FROM a, b, c WHERE a.k = b.k AND b.k = c.k"); err != nil {
		t.Fatal(err)
	}
	// Two join jobs plus one aggregate job: the chained-MR shape the
	// paper contrasts with pipelined execution.
	if got := e.JobsRun - before; got != 3 {
		t.Errorf("jobs = %d, want 3", got)
	}
}

func TestOrderedKeyProperty(t *testing.T) {
	mk := func(d types.Datum) types.Row { return types.Row{d} }
	keys := []sortKey{{col: 0}}
	pairs := [][2]types.Datum{
		{types.NewInt64(-5), types.NewInt64(3)},
		{types.NewInt64(3), types.NewInt64(1000)},
		{types.NewFloat64(-2.5), types.NewFloat64(-1.5)},
		{types.NewFloat64(1.5), types.NewFloat64(2.5)},
		{types.NewDecimal(100, 2), types.NewDecimal(150, 2)},
		{types.NewString("abc"), types.NewString("abd")},
		{types.Null, types.NewInt64(-100000)},
	}
	for _, p := range pairs {
		ka := string(orderedKey(mk(p[0]), keys))
		kb := string(orderedKey(mk(p[1]), keys))
		if !(ka < kb) {
			t.Errorf("orderedKey(%v) >= orderedKey(%v)", p[0], p[1])
		}
		// Descending inverts.
		dk := []sortKey{{col: 0, desc: true}}
		if !(string(orderedKey(mk(p[0]), dk)) > string(orderedKey(mk(p[1]), dk))) {
			t.Errorf("desc orderedKey(%v) <= orderedKey(%v)", p[0], p[1])
		}
	}
}

func TestLimitAndOffset(t *testing.T) {
	e := newStinger(t)
	var rows [][]int64
	for i := 0; i < 20; i++ {
		rows = append(rows, []int64{int64(i)})
	}
	e.LoadTable("t", intSchema("k"), intRows(rows...))
	got, _, err := e.Query("SELECT k FROM t ORDER BY k DESC LIMIT 3 OFFSET 2")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{17, 16, 15}
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	for i, w := range want {
		if got[i][0].Int() != w {
			t.Errorf("row %d = %v, want %d", i, got[i][0], w)
		}
	}
}

func TestAppendTable(t *testing.T) {
	e := newStinger(t)
	e.LoadTable("t", intSchema("k"), intRows([]int64{1}))
	if err := e.AppendTable("t", intRows([]int64{2}, []int64{3})); err != nil {
		t.Fatal(err)
	}
	rows, _, err := e.Query("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 3 {
		t.Fatalf("count = %v", rows[0])
	}
}
