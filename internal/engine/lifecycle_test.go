package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hawq/internal/tx"
	"hawq/internal/types"
)

// TestCopyRefusesWhatInsertRefuses: COPY and INSERT share one write
// path, so a row INSERT refuses (into a partition child, or into an
// external table) COPY refuses with the same error, and writes nothing.
func TestCopyRefusesWhatInsertRefuses(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE sales (id INT8, date DATE, amt DECIMAL(10,2))
		DISTRIBUTED BY (id)
		PARTITION BY RANGE (date)
		(START (DATE '2008-01-01') INCLUSIVE
		 END (DATE '2008-07-01') EXCLUSIVE
		 EVERY (INTERVAL '1 month'))`)
	mustExec(t, s, `CREATE EXTERNAL TABLE ext_sales (id INT8, date DATE, amt DECIMAL(10,2))
		LOCATION ('pxf://svc/ext/sales?profile=text') FORMAT 'CUSTOM'`)
	date, err := types.ParseDate("2008-06-01")
	if err != nil {
		t.Fatal(err)
	}
	june := types.Row{types.NewInt64(1), date, types.NewDecimal(100, 2)}

	for _, table := range []string{"sales_1_prt_3", "ext_sales"} {
		_, insertErr := s.Query("INSERT INTO " + table + " VALUES (1, DATE '2008-06-01', 1.00)")
		if insertErr == nil {
			t.Fatalf("INSERT INTO %s accepted", table)
		}
		n, copyErr := s.CopyFrom(table, []types.Row{june})
		if copyErr == nil || copyErr.Error() != insertErr.Error() {
			t.Errorf("COPY into %s = %d rows, %v; want INSERT's error %q", table, n, copyErr, insertErr)
		}
		tr := e.cl.TxMgr.Begin(tx.ReadCommitted)
		desc, err := e.cl.Cat().LookupTable(tr.Snapshot(), table)
		if err != nil {
			t.Fatal(err)
		}
		if files := e.cl.Cat().AllSegFiles(tr.Snapshot(), desc.OID); len(files) != 0 {
			t.Errorf("refused COPY into %s left segment files %v", table, files)
		}
		tr.Abort()
	}
	for _, q := range []string{
		"SELECT count(*) FROM sales",
		"SELECT count(*) FROM sales_1_prt_3",
		"SELECT count(*) FROM sales WHERE date = DATE '2008-06-01'",
	} {
		if got := mustExec(t, s, q).Rows[0][0].Int(); got != 0 {
			t.Errorf("%s = %d after refused writes, want 0", q, got)
		}
	}
}

// TestFailedStatementAbortsBlockWhateverItsEntry: inside BEGIN, a
// failed statement aborts the block whether it came as SQL text, as a
// prepared execution (the wire protocol's Execute message) or as COPY:
// the block's earlier INSERT is not visible after COMMIT.
func TestFailedStatementAbortsBlockWhateverItsEntry(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k INT8, v TEXT) DISTRIBUTED BY (k)")
	if err := s.Prepare("byk", "SELECT v FROM t WHERE k = $1"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		entry string
		fail  func() error
	}{
		{"text", func() error { _, err := s.Query("SELECT v FROM t WHERE k = 'one'"); return err }},
		{"prepared", func() error { _, err := s.ExecutePrepared("byk", types.NewString("one")); return err }},
		{"prepared, unknown name", func() error { _, err := s.ExecutePrepared("nosuch"); return err }},
		{"copy", func() error { _, err := s.CopyFrom("t", []types.Row{{types.NewInt64(2)}}); return err }},
	} {
		mustExec(t, s, "BEGIN")
		mustExec(t, s, "INSERT INTO t VALUES (1, 'one')")
		if err := c.fail(); err == nil {
			t.Fatalf("%s: the failing statement succeeded", c.entry)
		}
		mustExec(t, s, "COMMIT")
		if got := mustExec(t, s, "SELECT count(*) FROM t").Rows[0][0].Int(); got != 0 {
			t.Fatalf("%s: a failed statement left the block open; COMMIT kept %d rows", c.entry, got)
		}
	}
}

// TestCopyIsCounted: COPY is a statement of the lifecycle, so it
// advances engine.queries as SQL text does.
func TestCopyIsCounted(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k INT8) DISTRIBUTED BY (k)")
	before := engineQueries.Value()
	if _, err := s.CopyFrom("t", []types.Row{{types.NewInt64(1)}}); err != nil {
		t.Fatal(err)
	}
	if engineQueries.Value() <= before {
		t.Fatal("COPY did not advance engine.queries")
	}
}

// TestCopyCastsWithoutWritingTheCallersRows: COPY casts a cell to its
// column's kind and scale (text to DECIMAL, DECIMAL at scale 4 to scale
// 2, INTEGER to BIGINT) in rows of its own, beside rows that need no
// cast, and the rows the caller handed in are left as they were.
func TestCopyCastsWithoutWritingTheCallersRows(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k INT8, amt DECIMAL(10,2), note TEXT) DISTRIBUTED BY (k)")
	rows := []types.Row{
		{types.NewInt64(1), types.NewDecimal(100, 2), types.NewString("as is")},
		{types.NewInt64(2), types.NewString(" 3.456 "), types.NewString("text")},
		{types.NewInt64(3), types.NewDecimal(12345, 4), types.NewString("scale")},
		{types.NewInt64(4), types.NewDecimal(250, 2), types.NewString("as is")},
		{types.NewInt32(5), types.NewDecimal(-5, 3), types.NewString("int, scale")},
	}
	before := make([]types.Row, len(rows))
	for i, r := range rows {
		before[i] = slices.Clone(r)
	}
	if n, err := s.CopyFrom("t", rows); err != nil || n != int64(len(rows)) {
		t.Fatalf("COPY = %d rows, %v", n, err)
	}
	for i := range rows {
		if !slices.Equal(rows[i], before[i]) {
			t.Errorf("caller's row %d = %v after COPY, was %v", i, rows[i], before[i])
		}
	}
	res := mustExec(t, s, "SELECT k, amt FROM t ORDER BY k")
	want := []string{"1 1.00", "2 3.46", "3 1.23", "4 2.50", "5 -0.01"}
	for i, r := range res.Rows {
		if got := r[0].String() + " " + r[1].String(); i >= len(want) || got != want[i] {
			t.Errorf("row %d = %q, want %q", i, got, want)
		}
	}
	if len(res.Rows) != len(want) {
		t.Errorf("%d rows loaded, want %d", len(res.Rows), len(want))
	}
}

// TestSerializableInserterKeepsCommittedRows: a serializable inserter
// whose snapshot predates another transaction's committed append to
// the same table neither destroys those rows nor sees them. Inside its
// block it counts its snapshot's rows plus its own, each once; after
// it commits, every row is counted once and the table stays readable.
func TestSerializableInserterKeepsCommittedRows(t *testing.T) {
	e := newTestEngine(t, 2)
	a, b := e.NewSession(), e.NewSession()
	mustExec(t, a, "CREATE TABLE t (k INT8, v TEXT) DISTRIBUTED BY (k)")

	mustExec(t, a, "BEGIN ISOLATION LEVEL SERIALIZABLE")
	if got := mustExec(t, a, "SELECT count(*) FROM t").Rows[0][0].Int(); got != 0 {
		t.Fatalf("initial count = %d", got)
	}
	mustExec(t, b, "INSERT INTO t VALUES (1, 'b'), (2, 'b'), (3, 'b')")
	mustExec(t, a, "INSERT INTO t VALUES (4, 'a')")
	if got := mustExec(t, a, "SELECT count(*), sum(k) FROM t").Rows[0]; got[0].Int() != 1 || got[1].Int() != 4 {
		t.Fatalf("inside the serializable block: count, sum = %v; want its own row only", got)
	}
	want := int64(4)
	if _, err := a.Query("COMMIT"); err != nil {
		if !strings.Contains(err.Error(), "serializ") {
			t.Fatalf("COMMIT: %v", err)
		}
		want = 3
	}
	for i := 0; i < 2; i++ {
		res, err := b.Query("SELECT count(*), count(DISTINCT k), min(v) FROM t")
		if err != nil {
			t.Fatalf("scan after the serializable commit: %v", err)
		}
		if got := res.Rows[0]; got[0].Int() != want || got[1].Int() != want {
			t.Fatalf("count, distinct keys = %v; want %d each", got, want)
		}
		// A later append to the table keeps it readable.
		mustExec(t, b, fmt.Sprintf("INSERT INTO t VALUES (%d, 'c')", 5+i))
		want++
	}
}

// TestMaintenanceStatementRunsUnderParentContext: a maintenance
// statement runs under the scheduler's context, so canceling that
// context cancels the statement, with no goroutine bridging the two.
func TestMaintenanceStatementRunsUnderParentContext(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k INT8) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2)")
	errParentGone := errors.New("scheduler stopped")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errParentGone)
	_, err := e.NewSession().execute(ctx, "SELECT count(*) FROM t")
	if err == nil || !errors.Is(err, errParentGone) {
		t.Fatalf("statement under a canceled parent: %v; want the parent's cause", err)
	}
}
