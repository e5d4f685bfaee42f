package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hawq/internal/obs"
)

// warm runs sql three times: the first touch, the pass that admits the
// blocks, a pass served from the segments' block caches.
func warm(t testing.TB, s *Session, sql string) []string {
	t.Helper()
	var last []string
	for i := 0; i < 3; i++ {
		last = rowsString(mustExec(t, s, sql))
	}
	return last
}

// TestCacheStaleIsImpossibleAcrossAbort is the generation case through
// SQL, one line to reproduce: BEGIN; INSERT; SELECT ×3; ROLLBACK, then
// another transaction inserts different rows of the same widths, which
// land at the offsets the aborted ones occupied. The readers inside the
// transaction cached its uncommitted blocks; the rollback's HDFS
// truncate (§5.3) must make them unreachable.
func TestCacheStaleIsImpossibleAcrossAbort(t *testing.T) {
	for _, with := range []string{
		"WITH (appendonly=true, orientation=row)",
		"WITH (appendonly=true, orientation=column, compresstype=quicklz)",
		"WITH (appendonly=true, orientation=parquet)",
	} {
		e := newTestEngine(t, 2)
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE gen (k INT8, v TEXT) "+with+" DISTRIBUTED BY (k)")
		values := func(tag string) string {
			var vals []string
			for i := 0; i < 200; i++ {
				vals = append(vals, fmt.Sprintf("(%d, '%s-%03d')", i, tag, i))
			}
			return strings.Join(vals, ", ")
		}
		mustExec(t, s, "BEGIN")
		mustExec(t, s, "INSERT INTO gen VALUES "+values("aborted"))
		if own := warm(t, s, "SELECT k, v FROM gen ORDER BY k"); len(own) != 200 || !strings.Contains(own[0], "aborted-000") {
			t.Fatalf("%s: the transaction does not see its own insert: %d rows", with, len(own))
		}
		mustExec(t, s, "ROLLBACK")
		if got := warm(t, s, "SELECT count(v) FROM gen"); got[0] != "0" {
			t.Fatalf("%s: rolled-back rows visible: %v", with, got)
		}
		mustExec(t, s, "INSERT INTO gen VALUES "+values("written"))
		got := warm(t, e.NewSession(), "SELECT k, v FROM gen ORDER BY k")
		if len(got) != 200 {
			t.Fatalf("%s: %d rows after abort and re-insert, want 200", with, len(got))
		}
		for i, r := range got {
			if want := fmt.Sprintf("%d|written-%03d", i, i); r != want {
				t.Fatalf("%s: row %d = %s, want %s: a cached block of the aborted transaction was served", with, i, r, want)
			}
		}
	}
}

// TestCacheDropCreateSameName: DROP TABLE + CREATE TABLE of the same name
// with the cache warm; the new table's files are new HDFS files.
func TestCacheDropCreateSameName(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	for round, tag := range []string{"first", "second", "third"} {
		mustExec(t, s, "CREATE TABLE reborn (k INT8, v TEXT) DISTRIBUTED BY (k)")
		var vals []string
		for i := 0; i < 64; i++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s-%d')", i, tag, i))
		}
		mustExec(t, s, "INSERT INTO reborn VALUES "+strings.Join(vals, ", "))
		got := warm(t, s, "SELECT k, v FROM reborn ORDER BY k")
		if len(got) != 64 || got[5] != fmt.Sprintf("5|%s-5", tag) {
			t.Fatalf("round %d: %d rows, row 5 = %v", round, len(got), got[5])
		}
		mustExec(t, s, "DROP TABLE reborn")
	}
}

// TestCacheCompactionUnderReaders: engine/compact.go swaps a fragmented
// table's segment files for one merged file per segment while sessions
// keep reading it through warm caches. Every SELECT — before, during,
// after the swap — returns the same rows; run with -race.
func TestCacheCompactionUnderReaders(t *testing.T) {
	e, _ := newSimEngine(t, 2, func(c *Config) { c.TaskSweep = false })
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE frag (id INT8 NOT NULL, v TEXT) DISTRIBUTED BY (id)")
	fragmentTable(t, e, "frag", 8)
	want := strings.Join(warm(t, s, "SELECT id, v FROM frag ORDER BY id"), "\n")
	filesBefore, _ := segFileState(t, e, "frag")

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := e.NewSession()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := rs.Query("SELECT id, v FROM frag ORDER BY id")
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if got := strings.Join(rowsString(res), "\n"); got != want {
					t.Errorf("reader saw different rows across the compaction:\n%s", got)
					return
				}
			}
		}()
	}
	if err := e.CompactTable(context.Background(), "frag"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := strings.Join(rowsString(mustExec(t, s, "SELECT id, v FROM frag ORDER BY id")), "\n"); got != want {
			t.Fatalf("after compaction:\n%s", got)
		}
	}
	close(done)
	wg.Wait()
	if filesAfter, _ := segFileState(t, e, "frag"); len(filesAfter) >= len(filesBefore) {
		t.Fatalf("compaction did not reduce segfiles: %d -> %d", len(filesBefore), len(filesAfter))
	}
}

// TestCacheIsSoftState: DropCaches and a segment's death both lose the
// cache and nothing else — the next read is cold (it reads HDFS again)
// and correct.
func TestCacheIsSoftState(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	setupAccounts(t, s)
	const sql = "SELECT id, owner, balance FROM accounts ORDER BY id"
	want := strings.Join(warm(t, s, sql), "\n")
	read := func() int64 { return obs.Value("hdfs.read_bytes") }

	before := read()
	mustExec(t, s, sql)
	if read() != before {
		t.Fatalf("warm read fetched %d bytes from HDFS", read()-before)
	}
	held := obs.Value("storage.cache_bytes")
	e.cl.DropCaches()
	if now := obs.Value("storage.cache_bytes"); now >= held {
		t.Errorf("storage.cache_bytes %d -> %d across DropCaches", held, now)
	}
	before = read()
	if got := strings.Join(rowsString(mustExec(t, s, sql)), "\n"); got != want || read() == before {
		t.Fatalf("after DropCaches: read %d bytes, rows equal %v", read()-before, got == want)
	}

	// A dead DataNode and a failed volume under a warm cache: the warm
	// read needs neither, and the cold read after them is served by the
	// surviving replicas like any uncached read.
	warm(t, s, sql)
	e.cl.FS.DataNode(0).Kill()
	e.cl.FS.DataNode(1).FailVolume(0)
	before = read()
	if got := strings.Join(rowsString(mustExec(t, s, sql)), "\n"); got != want || read() != before {
		t.Fatalf("warm read with a DataNode down: read %d bytes, rows equal %v", read()-before, got == want)
	}
	e.cl.DropCaches()
	if got := strings.Join(rowsString(mustExec(t, s, sql)), "\n"); got != want {
		t.Fatal("cold read with a DataNode down and a volume failed returned different rows")
	}
	e.cl.FS.DataNode(0).Restart()

	warm(t, s, sql)
	held = obs.Value("storage.cache_bytes")
	e.cl.Segment(1).Kill()
	if now := obs.Value("storage.cache_bytes"); now >= held {
		t.Errorf("storage.cache_bytes %d -> %d across a segment kill", held, now)
	}
	before = read()
	if got := strings.Join(rowsString(mustExec(t, s, sql)), "\n"); got != want || read() == before {
		t.Fatalf("after kill-segment and failover: read %d bytes, rows equal %v", read()-before, got == want)
	}
}
