package tpch

import (
	"fmt"
	"testing"

	"hawq/internal/obs"
)

// TestWarmEqualsCold is the differential check on the segment block
// cache: on every storage format, compressed and not, all 22 TPC-H
// queries and the three serve_point statements return the same rows on
// the first read of a cold cache, on the pass that admits the blocks, on
// the pass served from memory, and on the first read after DropCaches —
// and the warm pass skips the same pages (zone bytes live in the cached
// directory) and reads no DataNode byte.
func TestWarmEqualsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	type stmt struct{ name, sql string }
	stmts := []stmt{
		{"point", "EXECUTE point (37)"},
		{"text", "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 37"},
		{"fanout", "EXECUTE fanout (37)"},
	}
	for _, q := range AllQueryNumbers() {
		stmts = append(stmts, stmt{fmt.Sprintf("Q%d", q), Queries[q]})
	}
	for _, orientation := range []string{"row", "column", "parquet"} {
		for _, codec := range []string{"", "quicklz"} {
			t.Run(orientation+"/"+codec, func(t *testing.T) {
				e, _ := loadedEngine(t, 3, LoadOptions{Scale: Scale{SF: testSF}, Orientation: orientation, CompressType: codec})
				s := e.NewSession()
				for _, prep := range []string{
					"PREPARE point AS SELECT c_name, c_acctbal FROM customer WHERE c_custkey = $1",
					"PREPARE fanout AS SELECT count(*) FROM orders WHERE o_custkey = $1",
				} {
					if _, err := s.Query(prep); err != nil {
						t.Fatal(err)
					}
				}
				// Start from nothing, whatever touched the blocks before.
				e.Cluster().DropCaches()
				type outcome struct {
					rows    string
					skipped int64
				}
				first := map[string]outcome{}
				for pass, label := range []string{"cold", "filling", "warm", "after DropCaches"} {
					if pass == 3 {
						e.Cluster().DropCaches()
					}
					for _, st := range stmts {
						skipped, read, misses := obs.Value("storage.pages_skipped"), obs.Value("hdfs.read_bytes"), obs.Value("storage.cache_misses")
						res, err := s.Query(st.sql)
						if err != nil {
							t.Fatalf("%s, %s: %v", st.name, label, err)
						}
						got := outcome{rowsMultiset(res.Rows), obs.Value("storage.pages_skipped") - skipped}
						if pass == 0 {
							first[st.name] = got
							continue
						}
						if got.rows != first[st.name].rows {
							t.Errorf("%s, %s: rows differ from the cold read:\n%s\n--- cold ---\n%s", st.name, label, got.rows, first[st.name].rows)
						}
						if got.skipped != first[st.name].skipped {
							t.Errorf("%s, %s: skipped %d pages, the cold read skipped %d", st.name, label, got.skipped, first[st.name].skipped)
						}
						if pass == 2 {
							if read, misses = obs.Value("hdfs.read_bytes")-read, obs.Value("storage.cache_misses")-misses; read != 0 || misses != 0 {
								t.Errorf("%s, warm: read %d bytes from HDFS, %d cache misses", st.name, read, misses)
							}
						}
					}
				}
				if used := obs.Value("storage.cache_bytes"); used <= 0 {
					t.Errorf("storage.cache_bytes = %d with a warm cache", used)
				}
			})
		}
	}
}
