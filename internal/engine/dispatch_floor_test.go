package engine

import (
	"context"
	"testing"

	"hawq/internal/obs"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
)

// The direct-dispatch floor statement — a key lookup on an empty table,
// one QE, no rows — allocates a few dozen objects (48 when the ceiling
// was set): the gang's operators and its two interconnect streams.
// Shipping the plan through a reflection codec costs roughly a thousand
// more (gob-decoding this plan alone is ~880), and a receive queue
// pre-sized for its senders' windows or a per-statement jitter source
// a handful each, so the ceiling fails if one creeps back into
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
	const ceiling = 51
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

// TestShortStreamDatagrams pins what a short statement puts on the UDP
// interconnect — counts, not times. A sender's stream to the QD is one
// final packet (its rows and its end-of-stream together) and one
// acknowledgement: two datagrams for a direct-dispatch point lookup,
// eight for a four-segment gather, none of them a retransmission.
func TestShortStreamDatagrams(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k BIGINT, v BIGINT) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60), (7, 70), (8, 80)")
	for _, tc := range []struct {
		sql       string
		rows      int
		datagrams int64
	}{
		{"SELECT v FROM t WHERE k = 3", 1, 2},
		{"SELECT count(*) FROM t", 1, 8},
		{"SELECT k, v FROM t", 8, 8},
	} {
		mustExec(t, s, tc.sql) // planned and cached; caches warm
		sent, resent := obs.Value("interconnect.udp_packets_sent"), obs.Value("interconnect.udp_retransmits")
		if res := mustExec(t, s, tc.sql); len(res.Rows) != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.sql, len(res.Rows), tc.rows)
		}
		if got := obs.Value("interconnect.udp_packets_sent") - sent; got != tc.datagrams {
			t.Errorf("%s: %d datagrams, want %d", tc.sql, got, tc.datagrams)
		}
		if got := obs.Value("interconnect.udp_retransmits") - resent; got != 0 {
			t.Errorf("%s: %d retransmits, want 0", tc.sql, got)
		}
	}
}
