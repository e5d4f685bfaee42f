package planner_test

import (
	"strings"
	"testing"

	"hawq/internal/engine"
	"hawq/internal/planner"
	"hawq/internal/types"
)

// TestResolveTypeModifiers: a NUMERIC type modifier is checked as
// PostgreSQL checks it — a precision of 1 to 1000, a scale of 0 to the
// precision — in DDL and in a CAST alike. Unchecked, DECIMAL(10,200)
// wrapped to a negative scale and CAST(2.25 AS DECIMAL(10,130)) answered
// 2.25.
func TestResolveTypeModifiers(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale int8
	}{{"DECIMAL(15,2)", 2}, {"decimal(15, 4)", 4}, {"DECIMAL(5)", 0}, {"NUMERIC", 2}, {"DECIMAL", 2}, {"NUMERIC(10,10)", 10}} {
		if col, err := planner.ResolveType(c.name); err != nil || col.Kind != types.KindDecimal || col.Scale != c.scale {
			t.Errorf("%s: %+v %v, want DECIMAL at scale %d", c.name, col, err, c.scale)
		}
	}
	bad := map[string]string{
		"DECIMAL(10,200)": "NUMERIC scale 200 must be between 0 and precision 10",
		"NUMERIC(10,-1)":  "NUMERIC scale -1 must be between 0 and precision 10",
		"DECIMAL(0)":      "NUMERIC precision 0 must be between 1 and 1000",
		"DECIMAL(1001,2)": "NUMERIC precision 1001 must be between 1 and 1000",
		"DECIMAL(x,2)":    "invalid NUMERIC type modifier",
		"DECIMAL(10,2,1)": "invalid NUMERIC type modifier",
	}
	for name, want := range bad {
		if col, err := planner.ResolveType(name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %+v %v, want %q", name, col, err, want)
		}
	}

	e, err := engine.New(engine.Config{Segments: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	for _, sql := range []string{
		"CREATE TABLE w (x DECIMAL(10,200))",
		"SELECT CAST(2.25 AS DECIMAL(10,130))",
	} {
		if _, err := s.Query(sql); err == nil || !strings.Contains(err.Error(), "must be between 0 and precision 10") {
			t.Errorf("%s: %v, want the scale refused", sql, err)
		}
	}
	if res, err := s.Query("SELECT CAST(2.255 AS DECIMAL(10,2))"); err != nil || res.Rows[0][0].String() != "2.26" {
		t.Errorf("CAST(2.255 AS DECIMAL(10,2)): %v %v", res, err)
	}
}
