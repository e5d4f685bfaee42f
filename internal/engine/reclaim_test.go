package engine

import (
	"fmt"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// segFileVersions returns the stored hawq_aoseg versions and those a
// snapshot taken now sees.
func segFileVersions(t *testing.T, e *Engine) (stored, live int) {
	t.Helper()
	cl := e.Cluster()
	st, err := cl.Cat().SysTable(catalog.SysAoseg)
	if err != nil {
		t.Fatal(err)
	}
	tr := cl.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Abort()
	st.Select(tr.Snapshot(), nil, func(uint64, types.Row) bool {
		live++
		return true
	})
	return st.Len(), live
}

// copyLoad creates one table per storage orientation and returns a
// function that runs the i-th COPY transaction of the load: two rows
// into the tables in turn, every tenth one rolled back.
func copyLoad(t *testing.T, s *Session) func(i int) {
	orients := []string{"row", "column", "parquet"}
	for _, o := range orients {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE load_%s (k INT8, v TEXT) WITH (appendonly=true, orientation=%s) DISTRIBUTED BY (k)", o, o))
	}
	return func(i int) {
		t.Helper()
		table := "load_" + orients[i%len(orients)]
		rows := []types.Row{{types.NewInt64(int64(2 * i)), types.NewString("x")}, {types.NewInt64(int64(2*i + 1)), types.NewString("y")}}
		rollback := i%10 == 9
		if rollback {
			mustExec(t, s, "BEGIN")
		}
		if _, err := s.CopyFrom(table, rows); err != nil {
			t.Fatalf("COPY %d into %s: %v", i, table, err)
		}
		if rollback {
			mustExec(t, s, "ROLLBACK")
		}
	}
}

// TestCopyHistoryStaysBounded: over 2 300 COPY transactions on row,
// column and Parquet, the stored hawq_aoseg versions stay within twice
// what a reclaim keeps: the live versions plus those the writing COPY
// itself pins while it runs (one per segment it writes), where without
// reclaim every COPY would leave one dead version per segment behind.
func TestCopyHistoryStaysBounded(t *testing.T) {
	const segments = 4
	e := newTestEngine(t, segments)
	s := e.NewSession()
	run := copyLoad(t, s)
	maxStored := 0
	for i := 0; i < 2300; i++ {
		run(i)
		stored, live := segFileVersions(t, e)
		if stored > 2*(live+segments) {
			t.Fatalf("after %d COPYs: %d stored hawq_aoseg versions for %d live; want at most %d", i+1, stored, live, 2*(live+segments))
		}
		maxStored = max(maxStored, stored)
	}
	t.Logf("at most %d stored hawq_aoseg versions over 2300 COPYs", maxStored)
}

// TestSerializableReaderSurvivesReclaim: a SERIALIZABLE reader opened
// before 500 COPYs pins every version its snapshot sees, so it still
// counts exactly its snapshot's rows after the writes have reclaimed
// around it; once it ends, the next reclaim bounds the history again.
func TestSerializableReaderSurvivesReclaim(t *testing.T) {
	const segments = 4
	e := newTestEngine(t, segments)
	s := e.NewSession()
	run := copyLoad(t, s)
	for i := 0; i < 30; i++ {
		run(i)
	}
	reader := e.NewSession()
	mustExec(t, reader, "BEGIN ISOLATION LEVEL SERIALIZABLE")
	want := map[string]int64{}
	for _, table := range []string{"load_row", "load_column", "load_parquet"} {
		want[table] = count(t, reader, table)
	}
	for i := 30; i < 530; i++ {
		run(i)
	}
	if stored, live := segFileVersions(t, e); stored <= 2*(live+segments) {
		t.Errorf("%d stored versions for %d live under an open reader; its snapshot pins more", stored, live)
	}
	for table, n := range want {
		if got := count(t, reader, table); got != n {
			t.Errorf("reader counts %d rows of %s after 500 COPYs; its snapshot holds %d", got, table, n)
		}
		if got := count(t, s, table); got <= n {
			t.Errorf("a new snapshot counts %d rows of %s; want more than %d", got, table, n)
		}
	}
	mustExec(t, reader, "COMMIT")
	for i := 530; i < 560; i++ {
		run(i)
	}
	if stored, live := segFileVersions(t, e); stored > 2*(live+segments) {
		t.Errorf("%d stored versions for %d live after the reader ended; want at most %d", stored, live, 2*(live+segments))
	}
}
