package tpch

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hawq/internal/clock"
	"hawq/internal/engine"
)

// simEngine boots a TPC-H-loaded engine on a simulated clock that
// never advances: every instrumented duration reads as zero, so
// EXPLAIN ANALYZE output depends only on the data and the plan.
func simEngine(t testing.TB, segments int) *engine.Engine {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	e, err := engine.New(engine.Config{Segments: segments, SpillDir: t.TempDir(), Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := Load(e, LoadOptions{Scale: Scale{SF: testSF}}); err != nil {
		t.Fatal(err)
	}
	return e
}

// explainAnalyze runs EXPLAIN ANALYZE over sql and returns the
// rendered plan as one string.
func explainAnalyze(t testing.TB, e *engine.Engine, sql string) string {
	t.Helper()
	res, err := e.NewSession().Query("EXPLAIN ANALYZE " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE: %v", err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].S)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExplainAnalyzeQ1Golden runs EXPLAIN ANALYZE on Q1 and on four
// join queries (the name is from when Q1 was the only one that held)
// against two independently booted simulated 4-segment clusters and
// requires identical output — per-node rows, batches, motion bytes, peak
// memory: operator stats must depend on the plan and the data alone, not
// on gang completion order, map iteration, wall time, or what another
// slice of the query happened to have finished. One run on the second
// engine and twenty reruns on the first must equal the first run in
// every byte but the scans' cache= hits/misses, which say how warm the
// block cache was (and, where a query scans one table twice, which scan
// came first); Q1's two cold runs must agree in those too.
func TestExplainAnalyzeQ1Golden(t *testing.T) {
	a, b := simEngine(t, 4), simEngine(t, 4)
	for _, q := range []int{1, 3, 7, 10, 18} {
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			cold := explainAnalyze(t, a, Queries[q])
			other := explainAnalyze(t, b, Queries[q])
			if q == 1 && other != cold {
				t.Fatalf("cold EXPLAIN ANALYZE differs between two engines:\n--- engine A ---\n%s--- engine B ---\n%s", cold, other)
			}
			want := cacheFieldRE.ReplaceAllString(cold, "")
			same := func(what, text string) {
				t.Helper()
				if got := cacheFieldRE.ReplaceAllString(text, ""); got != want {
					t.Fatalf("%s differs from the first run:\n--- first run ---\n%s--- %s ---\n%s", what, want, what, got)
				}
			}
			same("the second engine's run", other)
			for run := 1; run <= 20; run++ {
				same(fmt.Sprintf("rerun %d", run), explainAnalyze(t, a, Queries[q]))
			}
			if q != 1 {
				return
			}
			// Structural spot checks on the golden text: a sliced tree with
			// per-operator row counts, motion traffic, and the execution footer.
			for _, want := range []string{
				"Slice 0 (QD):",
				"Gather Motion",
				"rows=4",
				"bytes=",
				" cols=7/16 ",
				" cache=",
				"Execution: result rows=4 time=0s",
			} {
				if !strings.Contains(cold, want) {
					t.Errorf("EXPLAIN ANALYZE q1 output missing %q:\n%s", want, cold)
				}
			}
		})
	}
}

var (
	cacheFieldRE = regexp.MustCompile(` cache=\d+/\d+`)
	opRowsRE     = regexp.MustCompile(`-> .*\(rows=(\d+)`)
	footerRE     = regexp.MustCompile(`Execution: result rows=(\d+)`)
	scanRowsRE   = regexp.MustCompile(`-> Table Scan \(lineitem\).*\(rows=(\d+)`)
)

// TestExplainAnalyzeTotalsConsistent checks, for Q1, Q3 and Q13, that
// the instrumented counts agree with reality: the QD's top operator
// row count and the execution footer both equal the actual result
// cardinality of running the same query directly.
func TestExplainAnalyzeTotalsConsistent(t *testing.T) {
	e := simEngine(t, 2)
	for _, q := range []int{1, 3, 13} {
		sql := Queries[q]
		res, err := e.NewSession().Query(sql)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		text := explainAnalyze(t, e, sql)

		m := opRowsRE.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("q%d: no operator row count in:\n%s", q, text)
		}
		topRows, _ := strconv.Atoi(m[1])
		if topRows != len(res.Rows) {
			t.Errorf("q%d: top operator rows=%d, actual result has %d rows:\n%s",
				q, topRows, len(res.Rows), text)
		}

		f := footerRE.FindStringSubmatch(text)
		if f == nil {
			t.Fatalf("q%d: no execution footer in:\n%s", q, text)
		}
		if got, _ := strconv.Atoi(f[1]); got != len(res.Rows) {
			t.Errorf("q%d: footer reports %s, actual result has %d rows", q, f[0], len(res.Rows))
		}

		if !strings.Contains(text, "Motion Recv") || !strings.Contains(text, "bytes=") {
			t.Errorf("q%d: no motion traffic reported:\n%s", q, text)
		}
	}
}

// TestExplainAnalyzeReportsSpill pins spill attribution: under a
// starvation work_mem budget Q1's aggregate goes through workfiles,
// and the analyze tree must say so on the operator that spilled.
func TestExplainAnalyzeReportsSpill(t *testing.T) {
	e := simEngine(t, 2)
	s := e.NewSession()
	if _, err := s.Query("SET work_mem = '1kB'"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("EXPLAIN ANALYZE " + Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].S)
		b.WriteByte('\n')
	}
	text := b.String()
	if !strings.Contains(text, "spill_bytes=") || !strings.Contains(text, "spill_files=") {
		t.Errorf("no spill traffic in analyze tree under 1kB work_mem:\n%s", text)
	}
	if !strings.Contains(text, "Memory:") || !strings.Contains(text, "work_mem=1024") {
		t.Errorf("no memory budget line in analyze tree:\n%s", text)
	}
}

// TestExplainAnalyzeScanCardinality cross-checks a leaf count: Q1's
// lineitem scan (summed across segments) must report exactly the rows
// that pass the date filter, which SELECT count(*) can state directly.
func TestExplainAnalyzeScanCardinality(t *testing.T) {
	e := simEngine(t, 2)
	res, err := e.NewSession().Query(
		"SELECT count(*) FROM lineitem WHERE l_shipdate <= add_days(DATE '1998-12-01', -90)")
	if err != nil {
		t.Fatal(err)
	}
	want := res.Rows[0][0].Int()
	text := explainAnalyze(t, e, Queries[1])
	m := scanRowsRE.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no lineitem scan in:\n%s", text)
	}
	got, _ := strconv.ParseInt(m[1], 10, 64)
	if got != want {
		t.Errorf("lineitem scan rows=%d, count(*) says %d:\n%s", got, want, text)
	}
}
