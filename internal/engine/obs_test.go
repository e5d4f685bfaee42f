package engine

import (
	"strings"
	"testing"
)

func TestShowMetrics(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)
	mustExec(t, s, "SELECT count(owner) FROM accounts")

	res := mustExec(t, s, "SHOW metrics")
	if len(res.Rows) == 0 {
		t.Fatal("SHOW metrics returned no rows")
	}
	vals := map[string]int64{}
	var prev string
	for _, r := range res.Rows {
		name := r[0].S
		if prev != "" && name <= prev {
			t.Errorf("metrics not sorted: %q after %q", name, prev)
		}
		prev = name
		vals[name] = r[1].I
	}
	// The registry is process-wide, so only lower-bound assertions are
	// safe; this session alone ran several statements and a dispatch.
	for _, name := range []string{"engine.queries", "interconnect.tcp_msgs_sent", "types.batch_gets",
		"storage.cache_hits", "storage.cache_misses", "storage.cache_evictions", "storage.cache_bytes"} {
		if _, ok := vals[name]; !ok {
			t.Errorf("SHOW metrics missing %q", name)
		}
	}
	if vals["engine.queries"] < 2 {
		t.Errorf("engine.queries = %d, want >= 2", vals["engine.queries"])
	}
	if vals["storage.cache_misses"] < 1 {
		t.Errorf("storage.cache_misses = %d after a table scan", vals["storage.cache_misses"])
	}
}

func TestSlowQueryLog(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)

	// Nothing logged until the threshold is armed.
	mustExec(t, s, "SELECT count(*) FROM accounts")
	if n := e.SlowLog().Len(); n != 0 {
		t.Fatalf("slow log has %d entries before arming", n)
	}

	// 1ns threshold: every statement qualifies on a wall clock.
	mustExec(t, s, "SET slow_query_log_threshold = '1ns'")
	mustExec(t, s, "SELECT count(owner) FROM accounts")
	entries := e.SlowLog().Entries()
	if len(entries) == 0 {
		t.Fatal("slow log empty after slow statement")
	}
	last := entries[len(entries)-1]
	if !strings.Contains(last.SQL, "SELECT count(owner) FROM accounts") {
		t.Errorf("slow log SQL = %q", last.SQL)
	}
	if !strings.Contains(last.Summary, "-> ") || !strings.Contains(last.Summary, "rows=") {
		t.Errorf("slow log summary is not an analyze tree:\n%s", last.Summary)
	}
	// The scan's block-cache counts ride the same per-operator stats.
	if !strings.Contains(last.Summary, " cache=") {
		t.Errorf("slow log summary carries no cache=hits/misses:\n%s", last.Summary)
	}

	res := mustExec(t, s, "SHOW slow_queries")
	if len(res.Rows) != len(entries) {
		t.Errorf("SHOW slow_queries returned %d rows, log has %d", len(res.Rows), len(entries))
	}

	// Disarm and confirm the log stops growing.
	mustExec(t, s, "SET slow_query_log_threshold = 0")
	n := e.SlowLog().Len()
	mustExec(t, s, "SELECT count(*) FROM accounts")
	if got := e.SlowLog().Len(); got != n {
		t.Errorf("slow log grew from %d to %d while disarmed", n, got)
	}
}

func TestShowSlowQueryLogThreshold(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	res := mustExec(t, s, "SHOW slow_query_log_threshold")
	if got := res.Rows[0][0].S; got != "0s" {
		t.Errorf("default threshold = %q, want 0s", got)
	}
	mustExec(t, s, "SET slow_query_log_threshold = 250")
	res = mustExec(t, s, "SHOW slow_query_log_threshold")
	if got := res.Rows[0][0].S; got != "250ms" {
		t.Errorf("threshold = %q, want 250ms", got)
	}
	if _, err := s.Query("SET slow_query_log_threshold = '-5ms'"); err == nil {
		t.Error("negative threshold accepted")
	}
}

// TestExplainMemoryLine checks that plain EXPLAIN renders each slice's
// memory budget once the session sets one.
func TestExplainMemoryLine(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)

	res := mustExec(t, s, "EXPLAIN SELECT count(*) FROM accounts")
	for _, r := range res.Rows {
		if strings.Contains(r[0].S, "Memory:") {
			t.Fatalf("Memory line rendered with no budgets set: %q", r[0].S)
		}
	}

	mustExec(t, s, "SET work_mem = '4MB'")
	res = mustExec(t, s, "EXPLAIN SELECT count(*) FROM accounts")
	found := false
	for _, r := range res.Rows {
		if strings.Contains(r[0].S, "work_mem=4194304") {
			found = true
		}
	}
	if !found {
		t.Errorf("EXPLAIN missing work_mem memory line:\n%v", rowsString(res))
	}
}
