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
// output column, so it returns what GROUP BY of the same columns returns
// on every storage format, segment count and distribution — over keys
// that are one group by value but not by bits: NULLs, NaNs, ±0.0, and
// decimals written at several scales.
func TestDistinctAnswersAsGroupBy(t *testing.T) {
	var vals []string
	for i := 0; i < 240; i++ {
		d := []string{"2.5", "2.50", "2.500", "3", "3.0", "NULL"}[i%6]
		f := []string{"'NaN'", "'-0.0'", "0.0", "NULL", "1.5", "'NaN'", "0.0"}[i%7]
		vals = append(vals, fmt.Sprintf("(%d, %d, %s, %s, 'v%d')", i, i%5, d, f, i%3))
	}
	const cols = "g, d, f, s"
	groups := -1 // the same in every configuration
	for _, segs := range []int{1, 4} {
		e := newTestEngine(t, segs)
		s := e.NewSession()
		for _, format := range []string{"row", "column", "parquet"} {
			for _, dist := range []string{"DISTRIBUTED BY (g)", "DISTRIBUTED RANDOMLY"} {
				name := fmt.Sprintf("d_%s_%d", format, len(dist))
				mustExec(t, s, fmt.Sprintf(`CREATE TABLE %s (k INT8, g INT8, d DECIMAL(10,3), f DOUBLE PRECISION, s TEXT)
					WITH (appendonly=true, orientation=%s) %s`, name, format, dist))
				mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(vals, ", ")))
				where := fmt.Sprintf("%d segments, %s, %s", segs, format, dist)
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
			}
		}
	}
	// By value d takes 3 values (2.5, 3, NULL), f 4 (NaN, 0, NULL, 1.5):
	// the 240 rows hold 120 distinct (g, d, f, s).
	if groups != 120 {
		t.Errorf("%d groups, want 120", groups)
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
