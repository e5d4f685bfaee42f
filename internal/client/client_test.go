package client

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hawq/internal/engine"
	"hawq/internal/types"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	eng, err := engine.New(engine.Config{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := NewServer(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestQueryOverWire(t *testing.T) {
	srv := testServer(t)
	conn, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	res, err := conn.Query("CREATE TABLE t (k INT8, v TEXT) DISTRIBUTED BY (k); INSERT INTO t VALUES (1, 'one'), (2, 'two')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Tag != "CREATE TABLE" || !strings.HasPrefix(res[1].Tag, "INSERT") {
		t.Fatalf("results = %+v", res)
	}
	out, err := conn.QueryOne("SELECT k, v FROM t ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Len() != 2 || len(out.Rows) != 2 || out.Rows[1][1].Str() != "two" {
		t.Fatalf("select = %+v", out)
	}
	if out.Tag != "SELECT 2" {
		t.Errorf("tag = %q", out.Tag)
	}
}

func TestErrorsKeepConnectionUsable(t *testing.T) {
	srv := testServer(t)
	conn, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query("SELECT * FROM missing"); err == nil {
		t.Fatal("no error for missing table")
	}
	res, err := conn.QueryOne("SELECT 1 + 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("recovery query = %v", res.Rows)
	}
}

func TestTransactionsPerConnection(t *testing.T) {
	srv := testServer(t)
	a, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := a.Query("CREATE TABLE t (k INT8) DISTRIBUTED BY (k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Query("BEGIN; INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	res, err := b.QueryOne("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("uncommitted insert visible across connections")
	}
	if _, err := a.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, _ = b.QueryOne("SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("committed insert invisible")
	}
}

// TestSessionSettingsOverWire: Set round-trips workload-manager
// settings, and they stay per-session — another connection keeps the
// defaults.
func TestSessionSettingsOverWire(t *testing.T) {
	srv := testServer(t)
	a, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := a.Query("CREATE RESOURCE QUEUE wire WITH (active_statements = 2, memory_limit = '1MB')"); err != nil {
		t.Fatal(err)
	}
	if err := a.Set("work_mem", "64kB"); err != nil {
		t.Fatal(err)
	}
	if err := a.Set("resource_queue", "wire"); err != nil {
		t.Fatal(err)
	}
	if err := a.Set("resource_queue", "nosuch"); err == nil {
		t.Fatal("Set to unknown queue succeeded")
	}

	res, err := a.QueryOne("SHOW work_mem")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "64kB" {
		t.Fatalf("work_mem = %v", res.Rows[0])
	}
	res, err = a.QueryOne("SHOW resource_queue")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "wire" {
		t.Fatalf("resource_queue = %v", res.Rows[0])
	}
	// The settings are session-local.
	res, err = b.QueryOne("SHOW work_mem")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "0" {
		t.Fatalf("other session work_mem = %v", res.Rows[0])
	}
	res, err = b.QueryOne("SHOW resource_queue")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "none" {
		t.Fatalf("other session resource_queue = %v", res.Rows[0])
	}
}

// TestCancelOverWire exercises the full postgres-style cancel path: a
// second connection delivers the backend key, the server finds the
// session and aborts the in-flight statement, and the original
// connection surfaces the error and stays usable.
func TestCancelOverWire(t *testing.T) {
	srv := testServer(t)
	conn, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var sb strings.Builder
	sb.WriteString("CREATE TABLE big (k INT8, v INT8) DISTRIBUTED BY (k); INSERT INTO big VALUES ")
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i*7%101)
	}
	if _, err := conn.Query(sb.String()); err != nil {
		t.Fatal(err)
	}

	// A ~10^8-pair nested-loop cross join: slow enough that the cancel
	// always wins the race against completion.
	errCh := make(chan error, 1)
	go func() {
		_, err := conn.Query(`SELECT count(*) FROM big a, big b, big c, big d
			WHERE a.v < b.v`)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := conn.Cancel(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "canceling statement") {
			t.Fatalf("err = %v, want canceling statement", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled query did not return")
	}

	// The connection survives the cancel.
	res, err := conn.QueryOne("SELECT count(*) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after cancel = %v", res.Rows)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := testServer(t)
	setup, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if _, err := setup.Query("CREATE TABLE c (k INT8) DISTRIBUTED BY (k)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := Connect(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for j := 0; j < 5; j++ {
				if _, err := conn.QueryOne("SELECT count(*) FROM c"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMistypedComparisonIsAnError: a comparison of operands that do not
// compare — a DATE with a BIGINT, a TEXT with a number, in text or
// through a placeholder — is an error on the connection that sent it,
// on row and column tables alike. It used to reach types.Compare, which
// panics, in a QE goroutine nothing recovers: one statement from one
// client ended the process, every other session with it. The second
// connection here is that other session.
func TestMistypedComparisonIsAnError(t *testing.T) {
	srv := testServer(t)
	a, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, with := range []string{"appendonly=true", "appendonly=true, orientation=column"} {
		ddl := fmt.Sprintf("DROP TABLE IF EXISTS t; CREATE TABLE t (k INT8, d DATE, s TEXT) WITH (%s) DISTRIBUTED BY (k); "+
			"INSERT INTO t VALUES (1, DATE '1995-01-01', 'abc'), (2, DATE '1995-01-02', 'def')", with)
		if _, err := a.Query(ddl); err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{
			"SELECT k FROM t WHERE d = 9131",
			"SELECT k FROM t WHERE s = 1",
			"SELECT k FROM t WHERE k = 'abc'",
			"SELECT k FROM t WHERE s < d",
			"SELECT k FROM t WHERE d BETWEEN 1 AND 2",
			"SELECT k FROM t WHERE s IN (1, 2)",
			"SELECT CASE k WHEN 'one' THEN 1 ELSE 0 END FROM t",
			"SELECT count(*) FROM t WHERE 9131 = d",
		} {
			if _, err := a.Query(sql); err == nil || !strings.Contains(err.Error(), "cannot compare") {
				t.Errorf("%s (%s): err %v, want a cannot-compare error", sql, with, err)
			}
			if res, err := b.QueryOne("SELECT count(*) FROM t WHERE d = DATE '1995-01-02' AND s = 'def' AND k = 2"); err != nil || res.Rows[0][0].Int() != 1 {
				t.Fatalf("the other connection after %s: %v %+v", sql, err, res)
			}
		}
		// A placeholder nothing types at prepare time takes the kind of
		// what the client sends; what it is compared with decides.
		if err := a.Prepare("p", "SELECT count(*) FROM t WHERE $1 = $2"); err != nil {
			t.Fatal(err)
		}
		if _, err := a.ExecPrepared("p", types.NewInt64(1), types.NewString("x")); err == nil || !strings.Contains(err.Error(), "cannot compare") {
			t.Errorf("$1 = $2 with a number and a string: err %v", err)
		}
		if res, err := a.ExecPrepared("p", types.NewInt64(1), types.NewInt64(1)); err != nil || res.Rows[0][0].Int() != 2 {
			t.Errorf("$1 = $2 with two numbers: %v %+v", err, res)
		}
		if err := a.Deallocate("p"); err != nil {
			t.Fatal(err)
		}
		// What does compare still does: a date with a date string, a
		// decimal with an integer.
		if res, err := a.QueryOne("SELECT count(*) FROM t WHERE d = '1995-01-01' AND d BETWEEN '1994-12-31' AND '1995-01-01' AND k < 1.5"); err != nil || res.Rows[0][0].Int() != 1 {
			t.Errorf("comparable operands: %v %+v", err, res)
		}
	}
}
