package engine

import (
	"fmt"
	"maps"
	"testing"

	"hawq/internal/storage"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// laneLengths returns the physical length of every stored file of a
// table's lanes, by path.
func laneLengths(t *testing.T, e *Engine, table string) map[string]int64 {
	t.Helper()
	cl := e.Cluster()
	tr := cl.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Abort()
	desc, err := cl.Cat().LookupTable(tr.Snapshot(), table)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, sf := range cl.Cat().AllSegFiles(tr.Snapshot(), desc.OID) {
		for _, f := range storage.LaneFiles(desc.Storage, desc.Schema.Len(), sf) {
			if st, err := cl.FS.Stat(f.Path); err == nil {
				out[f.Path] = st.Length
			}
		}
	}
	return out
}

func count(t *testing.T, s *Session, table string) int64 {
	t.Helper()
	return mustExec(t, s, "SELECT count(*) FROM "+table).Rows[0][0].Int()
}

// TestAbortedAppendBetweenCommitsCountsOnce: two rows, two more in a
// block that rolls back, then two more count 4 on every storage
// orientation, whether the rows come through INSERT or COPY.
func TestAbortedAppendBetweenCommitsCountsOnce(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	for _, orient := range []string{"row", "column", "parquet"} {
		for _, via := range []string{"insert", "copy"} {
			table := orient + "_" + via
			mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT8, v TEXT) WITH (appendonly=true, orientation=%s) DISTRIBUTED BY (k)", table, orient))
			next := int64(0)
			write := func() {
				t.Helper()
				a, b := next, next+1
				next += 2
				if via == "insert" {
					mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (%d, 'x'), (%d, 'y')", table, a, b))
					return
				}
				rows := []types.Row{{types.NewInt64(a), types.NewString("x")}, {types.NewInt64(b), types.NewString("y")}}
				if _, err := s.CopyFrom(table, rows); err != nil {
					t.Fatalf("COPY into %s: %v", table, err)
				}
			}
			write()
			mustExec(t, s, "BEGIN")
			write()
			mustExec(t, s, "ROLLBACK")
			write()
			if got := count(t, s, table); got != 4 {
				t.Errorf("%s: count(*) = %d after 2 + rolled-back 2 + 2; want 4", table, got)
			}
		}
	}
}

// TestTransactionKeepsItsLane: the INSERTs of one transaction append to
// the one lane it holds, so three of them on a 2-segment cluster leave 2
// seg files; the same block rolled back leaves the row count and every
// file's physical length as they were before BEGIN.
func TestTransactionKeepsItsLane(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k INT8) DISTRIBUTED BY (k)")
	block := func(end string) {
		t.Helper()
		mustExec(t, s, "BEGIN")
		for i := 0; i < 3; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d), (%d)", 2*i, 2*i+1))
		}
		mustExec(t, s, end)
	}
	block("COMMIT")
	before := laneLengths(t, e, "t")
	if len(before) != 2 {
		t.Fatalf("one transaction's three INSERTs left %d seg files %v; want 2", len(before), before)
	}
	if got := count(t, s, "t"); got != 6 {
		t.Fatalf("count(*) = %d; want 6", got)
	}
	block("ROLLBACK")
	if got := count(t, s, "t"); got != 6 {
		t.Errorf("count(*) after the rolled-back block = %d; want 6", got)
	}
	if after := laneLengths(t, e, "t"); !maps.Equal(after, before) {
		t.Errorf("physical lengths after the rolled-back block %v; before it %v", after, before)
	}
}
