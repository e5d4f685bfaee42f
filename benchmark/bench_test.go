package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hawq/internal/testutil"
	"hawq/internal/tpch"
	"hawq/internal/types"
)

func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }

// smokeConfig shrinks every workload to a tenth of its tracked size and
// the window to a fraction of a second.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.window = 200 * time.Millisecond
	cfg.warmup = 50 * time.Millisecond
	cfg.minPasses = 2
	cfg.scale = 0.1
	cfg.setups = 1
	cfg.scratch = t.TempDir()
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that a run emitted exactly the declared metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: emitted %d metrics, declared %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is %v", res.Workload, d.Name, m.Value)
		}
	}
	if res.Failed != 0 || !res.Correct {
		t.Errorf("%s: %d of %d statements failed: %s", res.Workload, res.Failed, res.Attempted, res.Failure)
	}
}

// TestSmoke runs all four workloads, untraced and traced, at a tenth of
// the tracked size.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	for _, w := range workloads {
		res, err := runUntraced(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		traced, err := runTraced(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, traced, perLayer)
		if got := traced.Metrics["runtime.goroutines_leaked"].Value; got != 0 {
			t.Errorf("%s: %v goroutines leaked", w.name, got)
		}
		if w.name != "load_txn" {
			if got := traced.Metrics["wal.fsyncs_per_txn"].Value; got != 0 {
				t.Errorf("%s: read workload cost %v fsyncs per transaction", w.name, got)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.scratch, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: spans not written: %v", w.name, err)
		}
	}
}

// TestAbortOnSharedTableStillFails runs the schedule the issue asked of
// load_txn -- rollbacks on the tables that also receive commits, the
// paper's section 5.3 path -- and asserts the engine defect that made the
// tracked workload send its rollbacks to void twin tables instead: after
// an aborted append, a committed append to the same table leaves two
// visible versions of the lane and the consistency check fails (row
// counts double, or "physical length below logical"). When this test
// fails the defect is fixed: delete the void twins and abortsShareTable
// from load.go, and this test, in a benchmark change.
func TestAbortOnSharedTableStillFails(t *testing.T) {
	cfg := smokeConfig(t)
	s, err := setupLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.(*loadState)
	st.gen.abortsShareTable = true
	rec := newRecorder(newRefKernel())
	st.loop(0, 3, rec)
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	if rec.failed == 0 {
		t.Fatalf("%d statements with rollbacks and commits on one table all succeeded: the aoseg defect is fixed, take the void-table workaround out of load.go", rec.attempted)
	}
	t.Logf("known engine defect still present (%d of %d statements failed): %s", rec.failed, rec.attempted, rec.firstFailure)
}

// benchmarkJSON mirrors the driver's contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONAgrees asserts that BENCHMARK.json and the program
// declare the same workloads and metrics, within the contract's limits.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program %q", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, program %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, program %+v", i, j, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		if seen[d.Name] && d.Bound == 0 {
			t.Errorf("%s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds != int(defaultConfig().window.Seconds()) {
		t.Errorf("run_seconds = %d, program default %v", b.RunSeconds, defaultConfig().window)
	}
}

// statementStream renders the first statements a workload's generators
// produce for a seed, exactly as the engine would receive them.
func statementStream(seed int64) string {
	var b strings.Builder
	for _, queries := range [][]int{tpch.SimpleSelectionQueries, joinQueries} {
		ts := &tpchState{queries: queries, rng: rand.New(rand.NewSource(seed))}
		for pass := 0; pass < 5; pass++ {
			for _, q := range ts.nextPass() {
				b.WriteString(tpch.Queries[q])
			}
		}
	}
	for c := 0; c < serveClients; c++ {
		g := newServeGen(seed, c, 1500)
		for i := 0; i < 500; i++ {
			b.WriteString(g.next().String())
			b.WriteByte('\n')
		}
	}
	ls := &loadState{gen: newLoadGen(seed, 20)}
	ls.pool = lineitemPool(seed, ls.gen.poolRows())
	for i := 0; i < 3*loadPassIters; i++ {
		b.WriteString(ls.render(ls.gen.next()))
	}
	return b.String()
}

// render prints a load op as the statements the session receives.
func (st *loadState) render(op loadOp) string {
	if op.inserts {
		var b strings.Builder
		for _, row := range st.pool[op.off : op.off+loadInserts] {
			b.WriteString(insertSQL(loadTables[0].name, row) + ";\n")
		}
		return b.String()
	}
	end := "COMMIT"
	if op.rollback {
		end = "ROLLBACK"
	}
	var rows strings.Builder
	for _, row := range st.pool[op.off : op.off+st.gen.batch] {
		rows.WriteString(row.String() + "\n")
	}
	return "BEGIN; COPY " + loadTables[op.table].name + ";\n" + rows.String() + end + ";\n"
}

// TestSeedReproducible asserts that the seed alone decides the statement
// stream.
func TestSeedReproducible(t *testing.T) {
	a, b, c := statementStream(7), statementStream(7), statementStream(8)
	if a != b {
		t.Error("the same seed produced two different statement streams")
	}
	if a == c {
		t.Error("different seeds produced the same statement stream")
	}
}

// TestFingerprint asserts the oracle's digest ignores row order and
// float noise below 1e-6 relative, and nothing else.
func TestFingerprint(t *testing.T) {
	r1 := types.Row{types.NewInt64(1), types.NewFloat64(1234.5678901), types.NewDecimal(550, 2)}
	r2 := types.Row{types.NewInt64(2), types.NewFloat64(-0.25), types.NewString("x")}
	base := fingerprint([]types.Row{r1, r2})
	if got := fingerprint([]types.Row{r2, r1}); got != base {
		t.Error("fingerprint depends on row order")
	}
	noisy := types.Row{types.NewInt64(1), types.NewFloat64(1234.5678901 * (1 + 1e-9)), types.NewDecimal(55, 1)}
	if got := fingerprint([]types.Row{noisy, r2}); got != base {
		t.Error("fingerprint sees float noise of 1e-9 or a decimal's trailing zero")
	}
	off := types.Row{types.NewInt64(1), types.NewFloat64(1234.5678901 * (1 + 1e-4)), types.NewDecimal(550, 2)}
	if got := fingerprint([]types.Row{off, r2}); got == base {
		t.Error("fingerprint misses a 1e-4 relative difference")
	}
	if got := fingerprint([]types.Row{r1}); got == base {
		t.Error("fingerprint misses a missing row")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareVerdict covers the three verdicts and both directions.
func TestCompareVerdict(t *testing.T) {
	lower := metricDef{Name: "pass_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 1.02}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		same bool
		want string
	}{
		{lower, steady, []float64{1.05, 1.06, 1.07}, false, "ok"},
		{lower, steady, []float64{1.20, 1.21, 1.22}, false, "regressed"},
		{lower, steady, []float64{0.50, 0.51, 0.52}, false, "ok"},
		{higher, steady, []float64{0.80, 0.81, 0.82}, false, "regressed"},
		{higher, steady, []float64{1.20, 1.21, 1.22}, false, "ok"},
		{lower, steady, []float64{1.0, 1.3, 1.6}, false, "unresolved"},
		{lower, steady, nil, false, "unresolved"},
		// Two sets of one commit: whichever is the faster, they differ.
		{lower, steady, []float64{0.80, 0.81, 0.82}, true, "differs"},
		{lower, []float64{0.80, 0.81, 0.82}, steady, true, "differs"},
		{higher, steady, []float64{1.20, 1.21, 1.22}, true, "differs"},
		{lower, steady, []float64{1.05, 1.06, 1.07}, true, "ok"},
	} {
		if got := compareVerdict(c.d, c.a, c.b, c.same); got != c.want {
			t.Errorf("compareVerdict(%s, %v, %v, same=%v) = %s, want %s", c.d.Name, c.a, c.b, c.same, got, c.want)
		}
	}
}

// TestTail pins the percentile rule: the highest percentile with at
// least ten samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 99 || v != 1980 {
		t.Errorf("tail of 2000 samples = %v at p%v, want 1980 at p99", v, p)
	}
	if _, p := tail(xs[:20000/1000]); p != 50 {
		t.Errorf("tail of 20 samples at p%v, want the median", p)
	}
	if v, p := tail(xs[:100]); p != 90 || v != 90 {
		t.Errorf("tail of 100 samples = %v at p%v, want 90 at p90", v, p)
	}
}
