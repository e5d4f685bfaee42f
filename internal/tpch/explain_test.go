package tpch

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the EXPLAIN golden files")

// TestExplainGoldens pins the whole plan of every TPC-H query, in each
// table format, on 4 segments: a change to the planner that moves a join,
// a motion, a filter or a projection shows as a diff of these files.
// Run with -update to regenerate them.
func TestExplainGoldens(t *testing.T) {
	formats := []struct{ orientation, codec string }{
		{"row", "quicklz"}, {"column", "quicklz"}, {"parquet", "snappy"},
	}
	for _, f := range formats {
		t.Run(f.orientation, func(t *testing.T) {
			e, _ := loadedEngine(t, 4, LoadOptions{Scale: Scale{SF: testSF}, Orientation: f.orientation, CompressType: f.codec})
			for _, q := range AllQueryNumbers() {
				got := planStmt(t, e, Queries[q]).Explain()
				golden := filepath.Join("testdata", "explain", fmt.Sprintf("q%d_%s.golden", q, f.orientation))
				if *update {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("Q%d (%s): plan moved\n--- got ---\n%s--- want ---\n%s", q, f.orientation, got, want)
				}
			}
		})
	}
}
