package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hawq/internal/resource"
	"hawq/internal/tx"
	"hawq/internal/types"
)

func TestResourceQueueDDLRoundTrip(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()

	mustExec(t, s, "CREATE RESOURCE QUEUE reports WITH (active_statements = 3, memory_limit = '64MB')")

	// The queue is persisted as a catalog row...
	res := mustExec(t, s, "SELECT rsqname, activelimit, memlimit FROM hawq_resqueue")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "reports" {
		t.Fatalf("catalog rows = %v", rowsString(res))
	}
	if res.Rows[0][1].Int() != 3 || res.Rows[0][2].Int() != 64<<20 {
		t.Fatalf("catalog limits = %v", res.Rows[0])
	}
	// ...and registered in the runtime manager.
	res = mustExec(t, s, "SHOW resource_queues")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "reports" {
		t.Fatalf("SHOW resource_queues = %v", rowsString(res))
	}
	if res.Rows[0][1].Int() != 3 || res.Rows[0][2].Str() != "64MB" {
		t.Fatalf("SHOW limits = %v", res.Rows[0])
	}

	if _, err := s.Query("CREATE RESOURCE QUEUE reports WITH (active_statements = 1)"); err == nil {
		t.Fatal("duplicate CREATE RESOURCE QUEUE succeeded")
	}

	mustExec(t, s, "DROP RESOURCE QUEUE reports")
	res = mustExec(t, s, "SELECT count(*) FROM hawq_resqueue")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("catalog rows after drop = %v", res.Rows[0])
	}
	if e.res.Lookup("reports") != nil {
		t.Fatal("queue still registered after DROP")
	}
	if _, err := s.Query("DROP RESOURCE QUEUE reports"); err == nil {
		t.Fatal("dropping a missing queue succeeded")
	}
	mustExec(t, s, "DROP RESOURCE QUEUE IF EXISTS reports")
}

func TestResourceQueueDDLIsTransactional(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()

	// Aborted DDL leaves neither a catalog row nor a runtime queue.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "CREATE RESOURCE QUEUE txq WITH (active_statements = 1)")
	if e.res.Lookup("txq") != nil {
		t.Fatal("queue registered before commit")
	}
	mustExec(t, s, "ROLLBACK")
	if e.res.Lookup("txq") != nil {
		t.Fatal("queue registered after rollback")
	}
	res := mustExec(t, s, "SELECT count(*) FROM hawq_resqueue")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("catalog rows after rollback = %v", res.Rows[0])
	}

	// Committed DDL registers the queue only at commit.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "CREATE RESOURCE QUEUE txq WITH (active_statements = 1)")
	mustExec(t, s, "COMMIT")
	if e.res.Lookup("txq") == nil {
		t.Fatal("queue not registered after commit")
	}
}

func TestResourceQueueBootstrapFromCatalog(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE RESOURCE QUEUE etl WITH (active_statements = 2, memory_limit = '1MB')")

	// A restarted engine rebuilds its runtime manager from the committed
	// hawq_resqueue rows — the same list New replays at boot.
	boot := e.cl.TxMgr.Begin(tx.ReadCommitted)
	queues := e.cl.Cat().ListResourceQueues(boot.Snapshot())
	boot.Abort()
	if len(queues) != 1 {
		t.Fatalf("catalog queues = %+v", queues)
	}
	q := queues[0]
	if q.Name != "etl" || q.ActiveStatements != 2 || q.MemLimit != 1<<20 {
		t.Fatalf("rebuilt queue = %+v", q)
	}
}

func TestSetWorkMemAndResourceQueue(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()

	mustExec(t, s, "SET work_mem = '64kB'")
	res := mustExec(t, s, "SHOW work_mem")
	if res.Rows[0][0].Str() != "64kB" {
		t.Fatalf("SHOW work_mem = %v", res.Rows[0])
	}
	if _, err := s.Query("SET work_mem = 'lots'"); err == nil {
		t.Fatal("bad work_mem accepted")
	}
	// A misspelt name is an error, and changes nothing.
	if _, err := s.Query("SET wrok_mem = '1kB'"); err == nil || !strings.Contains(err.Error(), `unrecognized configuration parameter "wrok_mem"`) {
		t.Fatalf("SET wrok_mem: %v", err)
	}
	if res := mustExec(t, s, "SHOW work_mem"); res.Rows[0][0].Str() != "64kB" {
		t.Fatalf("SHOW work_mem after a misspelt SET = %v", res.Rows[0])
	}

	if _, err := s.Query("SET resource_queue = nosuch"); err == nil {
		t.Fatal("SET to unknown resource queue succeeded")
	}
	mustExec(t, s, "CREATE RESOURCE QUEUE adhoc WITH (active_statements = 5)")
	mustExec(t, s, "SET resource_queue = adhoc")
	res = mustExec(t, s, "SHOW resource_queue")
	if res.Rows[0][0].Str() != "adhoc" {
		t.Fatalf("SHOW resource_queue = %v", res.Rows[0])
	}
	mustExec(t, s, "SET resource_queue = none")
	res = mustExec(t, s, "SHOW resource_queue")
	if res.Rows[0][0].Str() != "none" {
		t.Fatalf("SHOW resource_queue after clear = %v", res.Rows[0])
	}

	// SHOW prints back every setting SET accepts, in a column named
	// after it; plan_cache's SHOW reports the cache's statistics.
	values := map[string]string{
		"transaction_isolation":    "serializable",
		"statement_timeout":        "250ms",
		"slow_query_log_threshold": "1s",
		"work_mem":                 "4MB",
		"resource_queue":           "adhoc",
		"plan_cache":               "off",
		"plan_cache_size":          "64",
	}
	if len(values) != len(settings) {
		t.Fatalf("the loop covers %d settings, the engine has %d", len(values), len(settings))
	}
	for name := range settings {
		v, ok := values[name]
		if !ok {
			t.Fatalf("no test value for setting %q", name)
		}
		mustExec(t, s, fmt.Sprintf("SET %s = '%s'", name, v))
		res := mustExec(t, s, "SHOW "+name)
		if name == "plan_cache" {
			if len(res.Rows) == 0 || res.Rows[0][0].Str() != "size" {
				t.Errorf("SHOW plan_cache = %v, want the cache statistics", rowsString(res))
			}
			continue
		}
		if got := res.Rows[0][0].String(); len(res.Rows) != 1 || res.Schema.Columns[0].Name != name || got != v {
			t.Errorf("SET %s = '%s'; SHOW %s = %v (column %q)", name, v, name, rowsString(res), res.Schema.Columns[0].Name)
		}
	}
}

// TestResourceQueueSerializesStatements is the acceptance check for
// admission control: with active_statements = 1 a second statement
// waits for the first to release its slot, and the wait is visible in
// the queue's stats.
func TestResourceQueueSerializesStatements(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)
	mustExec(t, s, "CREATE RESOURCE QUEUE serial WITH (active_statements = 1)")
	mustExec(t, s, "SET resource_queue = serial")

	// Occupy the queue's only slot, standing in for a long-running
	// statement from another client.
	q := e.res.Lookup("serial")
	if err := q.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	resCh := make(chan error, 1)
	go func() {
		_, err := s.Query("SELECT count(*) FROM accounts")
		resCh <- err
	}()
	// The statement must queue, not run.
	waitFor(t, func() bool { return q.Stats().Queued == 1 })
	select {
	case err := <-resCh:
		t.Fatalf("statement ran despite a full queue (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Releasing the slot admits it.
	q.Release()
	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("queued statement failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued statement never ran after release")
	}
	st := q.Stats()
	if st.Waits < 1 || st.Admitted < 2 || st.PeakQueued < 1 {
		t.Fatalf("stats after serialization: %+v", st)
	}
	if st.Active != 0 || st.Queued != 0 {
		t.Fatalf("slot leaked: %+v", st)
	}
}

func TestResourceQueueWaitAbortsOnTimeout(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)
	mustExec(t, s, "CREATE TABLE other (k INT8) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO other VALUES (1), (2)")
	mustExec(t, s, "CREATE RESOURCE QUEUE tq WITH (active_statements = 1)")
	mustExec(t, s, "SET resource_queue = tq")

	q := e.res.Lookup("tq")
	if err := q.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer q.Release()

	// Every statement that dispatches waits in the queue, whatever it
	// is and however it entered the engine.
	mustExec(t, s, "SET statement_timeout = 20")
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"SELECT", func() error { _, err := s.Query("SELECT count(*) FROM accounts"); return err }},
		{"COPY", func() error {
			_, err := s.CopyFrom("accounts", []types.Row{{types.NewInt64(101), types.NewString("o"), types.NewDecimal(100, 2), types.NewDate(0)}})
			return err
		}},
		{"EXPLAIN ANALYZE", func() error { _, err := s.Query("EXPLAIN ANALYZE SELECT count(*) FROM accounts"); return err }},
	} {
		err := c.run()
		if !errors.Is(err, ErrQueueTimeout) || !errors.Is(err, ErrStatementTimeout) {
			t.Fatalf("%s: err = %v, want queue timeout wrapping statement timeout", c.name, err)
		}
		if st := q.Stats(); st.Queued != 0 || st.Active != 1 {
			t.Fatalf("%s: timed-out waiter still queued or holding a slot: %+v", c.name, st)
		}
	}
	// ANALYZE of an internal table dispatches nothing, so it never waits.
	mustExec(t, s, "ANALYZE accounts")

	// The session is healthy once the queue frees up, and a statement's
	// nested dispatches (a scalar subquery) run under its one slot
	// instead of waiting for a second.
	mustExec(t, s, "SET statement_timeout = '10s'")
	q.Release()
	mustExec(t, s, "SELECT count(*) FROM accounts WHERE balance > (SELECT avg(balance) FROM accounts)")
	if st := q.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("slot leaked after nested dispatches: %+v", st)
	}
	if err := q.Acquire(context.Background()); err != nil { // re-hold for defer symmetry
		t.Fatal(err)
	}
	mustExec(t, s, "SET resource_queue = none")
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after queue timeout = %v", res.Rows[0])
	}
}

func TestResourceQueueWaitAbortsOnCancel(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)
	mustExec(t, s, "CREATE RESOURCE QUEUE cq WITH (active_statements = 1)")
	mustExec(t, s, "SET resource_queue = cq")

	q := e.res.Lookup("cq")
	if err := q.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer q.Release()

	errCh := make(chan error, 1)
	go func() {
		_, err := s.Query("SELECT count(*) FROM accounts")
		errCh <- err
	}()
	waitFor(t, func() bool { return q.Stats().Queued == 1 })
	s.Cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrQueueTimeout) || !errors.Is(err, ErrQueryCanceled) {
			t.Fatalf("err = %v, want queue timeout wrapping cancel", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
}

func TestDropBusyResourceQueueRefused(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE RESOURCE QUEUE busy WITH (active_statements = 1)")

	q := e.res.Lookup("busy")
	if err := q.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := s.Query("DROP RESOURCE QUEUE busy")
	if !errors.Is(err, resource.ErrQueueBusy) {
		t.Fatalf("err = %v, want queue busy", err)
	}
	q.Release()
	mustExec(t, s, "DROP RESOURCE QUEUE busy")
}

// TestMemoryLimitExhaustionIsCleanError: a query whose hash state
// outgrows its grant, with no work_mem to trigger spilling, fails with
// the clean OOM error — not a crash — and the session stays usable.
func TestMemoryLimitExhaustionIsCleanError(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)
	mustExec(t, s, "CREATE RESOURCE QUEUE tiny WITH (active_statements = 1, memory_limit = '2kB')")
	mustExec(t, s, "SET resource_queue = tiny")

	_, err := s.Query("SELECT count(*) FROM accounts a, accounts b WHERE a.id = b.id")
	if !errors.Is(err, resource.ErrOutOfMemory) {
		t.Fatalf("err = %v, want out of memory", err)
	}

	mustExec(t, s, "SET resource_queue = none")
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after OOM = %v", res.Rows[0])
	}
}

// TestWorkMemSpillMatchesInMemory: the same join+agg+sort query run
// with an in-memory budget and with a tiny work_mem must produce
// byte-identical results, and the tiny budget must actually spill.
func TestWorkMemSpillMatchesInMemory(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)
	const query = `SELECT a.owner, count(*), sum(b.balance) FROM accounts a, accounts b
		WHERE a.id = b.id GROUP BY a.owner ORDER BY a.owner`

	want := rowsString(mustExec(t, s, query))

	mustExec(t, s, "SET work_mem = '1kB'")
	files0, bytes0 := resource.SpillStats()
	got := rowsString(mustExec(t, s, query))
	files1, bytes1 := resource.SpillStats()
	if files1 == files0 || bytes1 == bytes0 {
		t.Fatalf("work_mem = 1kB did not spill (files %d -> %d)", files0, files1)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("spilled results differ:\n got %v\nwant %v", got, want)
	}

	// No workfiles outlive the statements.
	left, err := resource.Leftovers(e.cl.SpillDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("leftover workfiles: %v", left)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
