package engine

import (
	"context"
	"testing"

	"hawq/internal/sqlparser"
	"hawq/internal/tx"
)

// The direct-dispatch floor statement — a key lookup on an empty table,
// one QE, no rows — allocates a few dozen objects: the gang's operators
// and its two interconnect streams. Shipping the plan through a
// reflection codec costs roughly a thousand more (gob-decoding this
// plan alone is ~880), so the ceiling fails if one creeps back into
// cluster.Dispatch.
func TestDirectDispatchFloorAllocs(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k BIGINT, v BIGINT) DISTRIBUTED BY (k)")
	stmt, err := sqlparser.ParseOne("SELECT v FROM t WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	tr := e.cl.TxMgr.Begin(tx.ReadCommitted)
	pl, err := s.newPlanner(context.Background(), tr).PlanSelect(stmt.(*sqlparser.SelectStmt))
	tr.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if qes := len(pl.Slices[1].Segments); len(pl.Slices) != 2 || qes != 1 {
		t.Fatalf("not a direct dispatch: %d slices, %d QEs", len(pl.Slices), qes)
	}
	const ceiling = 100
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.cl.Dispatch(context.Background(), pl, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("direct dispatch floor: %.0f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("direct dispatch floor allocates %.0f objects per statement, ceiling %d", allocs, ceiling)
	}
}
