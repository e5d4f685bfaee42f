package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hawq/internal/resource"
	"hawq/internal/types"
)

// byValue sorts rows column by column with types.Compare, so that two
// groupings that agree by value — each showing a group's key as the row
// it met first, 2.5 or 2.50 — line up row for row.
func byValue(rows []types.Row) []types.Row {
	slices.SortFunc(rows, func(a, b types.Row) int {
		for i := range a {
			if c := types.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	})
	return rows
}

// sameByValue reports the first row at which two sorted results differ
// by value, or "" when they agree.
func sameByValue(got, want []types.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if slices.CompareFunc(got[i], want[i], types.Compare) != 0 {
			return fmt.Sprintf("row %d is %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// TestDistinctAnswersAsGroupBy: SELECT DISTINCT is a grouping on every
// output column, so it returns what GROUP BY of the same columns returns.
// And GROUP BY, SELECT DISTINCT and count(DISTINCT …) print one answer —
// sorted, as text, not merely equal by value — on row, column and
// Parquet storage, hashed and random distribution, one segment and four,
// in memory and spilling. The keys are one group by value but not by
// bits, or differ by little: NULLs, NaN, ±0.0, ±Infinity, the empty
// string, strings that differ in trailing spaces, and decimals written
// at several scales. A DECIMAL(10,2) column holds 2.5 as 2.50, so no
// group shows whichever of the two came first.
// A DOUBLE zero is shown as f + 0.0, which is 0 for −0.0 and +0.0 alike:
// the two are one group and PostgreSQL too shows it as the first it met.
func TestDistinctAnswersAsGroupBy(t *testing.T) {
	var vals []string
	for i := 0; i < 240; i++ {
		d := []string{"NULL", "2.5", "2.50", "2.500", "3", "3.0", "1.234", "1.235", "-1.235", "0.005"}[i%10]
		f := []string{"NULL", "'NaN'", "'-0.0'", "0.0", "'Infinity'", "'-Infinity'", "1.5", "'NaN'"}[i%8]
		s := []string{"NULL", "''", "'v'", "'v '", "'v  '", "' v'", "'w'"}[i%7]
		vals = append(vals, fmt.Sprintf("(%d, %d, %s, %s, %s)", i, i%5, d, f, s))
	}
	const cols = "g, d, f, s"
	queries := []string{
		"SELECT d, count(*) FROM %s GROUP BY d",
		"SELECT f + 0.0, count(*), sum(k) FROM %s GROUP BY f",
		"SELECT s, count(*), count(DISTINCT d) FROM %s GROUP BY s",
		"SELECT DISTINCT d, s FROM %s",
		"SELECT DISTINCT f + 0.0, d FROM %s",
		"SELECT count(DISTINCT d), count(DISTINCT f), count(DISTINCT s) FROM %s",
	}
	answers := make([]string, len(queries))
	groups := -1 // the same in every configuration
	for _, segs := range []int{1, 4} {
		e := newTestEngine(t, segs)
		s := e.NewSession()
		for _, format := range []string{"row", "column", "parquet"} {
			for _, dist := range []string{"DISTRIBUTED BY (g)", "DISTRIBUTED RANDOMLY"} {
				name := fmt.Sprintf("d_%s_%d", format, len(dist))
				mustExec(t, s, fmt.Sprintf(`CREATE TABLE %s (k INT8, g INT8, d DECIMAL(10,2), f DOUBLE PRECISION, s TEXT)
					WITH (appendonly=true, orientation=%s) %s`, name, format, dist))
				mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(vals, ", ")))
				for _, workMem := range []string{"0", "1kB"} { // 0, the default: no budget
					mustExec(t, s, fmt.Sprintf("SET work_mem = '%s'", workMem))
					where := fmt.Sprintf("%d segments, %s, %s, work_mem %s", segs, format, dist, workMem)
					files0, _ := resource.SpillStats()
					distinct := byValue(mustExec(t, s, fmt.Sprintf("SELECT DISTINCT %s FROM %s", cols, name)).Rows)
					grouped := byValue(mustExec(t, s, fmt.Sprintf("SELECT %s FROM %s GROUP BY %s", cols, name, cols)).Rows)
					if diff := sameByValue(distinct, grouped); diff != "" {
						t.Errorf("%s: DISTINCT vs GROUP BY: %s", where, diff)
					}
					if groups < 0 {
						groups = len(grouped)
					} else if len(grouped) != groups {
						t.Errorf("%s: %d groups, elsewhere %d", where, len(grouped), groups)
					}
					for i, q := range queries {
						got := rowsString(mustExec(t, s, fmt.Sprintf(q, name)))
						slices.Sort(got)
						text := strings.Join(got, "\n")
						if answers[i] == "" {
							answers[i] = text
						} else if text != answers[i] {
							t.Errorf("%s: %s gave\n%s\nelsewhere\n%s", where, fmt.Sprintf(q, name), text, answers[i])
						}
					}
					if files1, _ := resource.SpillStats(); (files1 > files0) != (workMem == "1kB") {
						t.Errorf("%s: %d workfiles", where, files1-files0)
					}
				}
			}
		}
	}
	// By value d takes 7 values (NULL, 2.50, 3.00, 1.23, 1.24, -1.24,
	// 0.01), f 6 (NULL, NaN, 0, ±Infinity, 1.5) and s all 7: the 240 rows
	// hold 215 distinct (g, d, f, s).
	if groups != 215 {
		t.Errorf("%d groups, want 215", groups)
	}
}

// TestDistinctSpillsUnderMemoryLimit: a DISTINCT whose set of rows
// outgrows both the statement's grant and work_mem spills as GROUP BY
// does, and answers as GROUP BY does, rather than failing out of memory.
func TestDistinctSpillsUnderMemoryLimit(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE wide (k INT8, a INT8, b TEXT) DISTRIBUTED BY (k)")
	var vals []string
	for i := 0; i < 3000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, 'row-%d')", i, i%1500, i%1500))
	}
	mustExec(t, s, "INSERT INTO wide VALUES "+strings.Join(vals, ", "))
	mustExec(t, s, "CREATE RESOURCE QUEUE small WITH (active_statements = 1, memory_limit = '64kB')")
	mustExec(t, s, "SET resource_queue = small")
	mustExec(t, s, "SET work_mem = '4kB'")

	files0, _ := resource.SpillStats()
	res, err := s.Query("SELECT DISTINCT a, b FROM wide")
	if errors.Is(err, resource.ErrOutOfMemory) {
		t.Fatalf("DISTINCT under a 64kB grant: %v", err)
	} else if err != nil {
		t.Fatal(err)
	}
	if files1, _ := resource.SpillStats(); files1 == files0 {
		t.Error("DISTINCT did not spill")
	}
	distinct := byValue(res.Rows)
	grouped := byValue(mustExec(t, s, "SELECT a, b FROM wide GROUP BY a, b").Rows)
	if diff := sameByValue(distinct, grouped); diff != "" || len(distinct) != 1500 {
		t.Errorf("DISTINCT vs GROUP BY: %s (%d rows)", diff, len(distinct))
	}
}

// TestDistinctOverColocatedInputHasNoMotion: rows hashed on a subset of
// the select list are whole groups where they sit, so DISTINCT groups
// once on each segment and only the gather to the QD moves rows.
func TestDistinctOverColocatedInputHasNoMotion(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE colo (k INT8, v TEXT, w INT8) DISTRIBUTED BY (k)")
	explain := strings.Join(rowsString(mustExec(t, s, "EXPLAIN SELECT DISTINCT v, k FROM colo")), "\n")
	want := `Slice 0 (QD):
  -> Motion Recv m1
Slice 1 (2 segments):
  -> Gather Motion
    -> HashAggregate []
      -> Project (v, k)
        -> Table Scan (colo) cols=2/3`
	if explain != want {
		t.Errorf("EXPLAIN:\n%s\nwant:\n%s", explain, want)
	}
}
