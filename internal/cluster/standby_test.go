package cluster

import (
	"fmt"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/tx"
)

func createClusterTable(t *testing.T, c *Cluster, name string) int64 {
	t.Helper()
	tr := c.TxMgr.Begin(tx.ReadCommitted)
	oid, err := c.Cat().CreateTable(tr, &catalog.TableDesc{
		Name: name, Schema: testSchema(),
		Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	return oid
}

// TestPromoteDetachesSubscription is the regression test for the
// promotion bug: Promote used to leave the standby's WAL subscription
// attached, so every post-promotion record was applied a second time
// into the now-active catalog.
func TestPromoteDetachesSubscription(t *testing.T) {
	c := testCluster(t, 1)
	oldWAL := c.WAL()
	c.StartStandby()
	if oldWAL.Subscribers() != 1 {
		t.Fatalf("subscribers before promote = %d", oldWAL.Subscribers())
	}
	c.Promote()
	if oldWAL.Subscribers() != 0 {
		t.Fatalf("promote left %d subscription(s) attached", oldWAL.Subscribers())
	}
	if c.WAL() == oldWAL {
		t.Fatal("promote did not start a fresh WAL epoch")
	}
	if c.HasStandby() {
		t.Fatal("standby still attached after promote")
	}
	// Post-promotion writes reach the catalog exactly once.
	createClusterTable(t, c, "after_promote")
	tr := c.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Commit()
	if _, err := c.Cat().LookupTable(tr.Snapshot(), "after_promote"); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteMidTransaction(t *testing.T) {
	c := testCluster(t, 1)
	createClusterTable(t, c, "committed_before")
	c.StartStandby()

	// A transaction in flight when the primary dies: its records shipped
	// to the standby, but no commit ever will.
	inflight := c.TxMgr.Begin(tx.ReadCommitted)
	if _, err := c.Cat().CreateTable(inflight, &catalog.TableDesc{
		Name: "phantom", Schema: testSchema(),
		Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
	}); err != nil {
		t.Fatal(err)
	}
	c.Promote()

	// The promoted catalog shows exactly the committed state.
	tr := c.TxMgr.Begin(tx.ReadCommitted)
	if _, err := c.Cat().LookupTable(tr.Snapshot(), "committed_before"); err != nil {
		t.Fatalf("committed table lost in promotion: %v", err)
	}
	if _, err := c.Cat().LookupTable(tr.Snapshot(), "phantom"); err == nil {
		t.Fatal("in-flight table visible after promotion")
	}
	tr.Commit()

	// The orphaned transaction was aborted by promotion; its commit must
	// fail rather than resurrect the records.
	if err := inflight.Commit(); err == nil {
		t.Fatal("in-flight commit succeeded after promotion")
	}

	// The promoted master accepts new work, and a fresh standby can
	// attach to the new epoch and replicate it.
	createClusterTable(t, c, "after")
	sb := c.StartStandby()
	createClusterTable(t, c, "streamed")
	if err := sb.Err(); err != nil {
		t.Fatalf("fresh standby diverged: %v", err)
	}
	tr2 := c.TxMgr.Begin(tx.ReadCommitted)
	defer tr2.Commit()
	for _, name := range []string{"committed_before", "after", "streamed"} {
		if _, err := sb.Cat.LookupTable(tr2.Snapshot(), name); err != nil {
			t.Fatalf("fresh standby missing %s: %v", name, err)
		}
	}
}

func TestStandbyTracksManyTransactions(t *testing.T) {
	c := testCluster(t, 1)
	sb := c.StartStandby()
	for i := 0; i < 10; i++ {
		createClusterTable(t, c, fmt.Sprintf("t%d", i))
	}
	if err := sb.Err(); err != nil {
		t.Fatal(err)
	}
	if sb.LastLSN() == 0 {
		t.Fatal("standby saw no records")
	}
	tr := c.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Commit()
	if got, want := sb.Cat.Dump(tr.Snapshot()), c.Cat().Dump(tr.Snapshot()); got != want {
		t.Fatalf("standby catalog diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestStandbyMatchesAfterAbortedAppend: a table appended to, then by a
// transaction that aborts, then again keeps one version of each lane
// file on the primary, and a standby replaying the log shows what the
// primary shows.
func TestStandbyMatchesAfterAbortedAppend(t *testing.T) {
	c := testCluster(t, 2)
	sb := c.StartStandby()
	createClusterTable(t, c, "t")
	tr := c.TxMgr.Begin(tx.ReadCommitted)
	desc, err := c.Cat().LookupTable(tr.Snapshot(), "t")
	tr.Abort()
	if err != nil {
		t.Fatal(err)
	}
	appendRows := func(commit bool) {
		t.Helper()
		tr := c.TxMgr.Begin(tx.ReadCommitted)
		_, files, err := c.AcquireLane(tr, desc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sf := range files {
			sf.LogicalLen += 64
			sf.Tuples++
			if err := c.Cat().UpdateSegFile(tr, sf); err != nil {
				t.Fatal(err)
			}
		}
		if !commit {
			tr.Abort()
		} else if err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	appendRows(true)
	appendRows(false)
	appendRows(true)

	check := c.TxMgr.Begin(tx.ReadCommitted)
	defer check.Abort()
	snap := check.Snapshot()
	files := c.Cat().AllSegFiles(snap, desc.OID)
	if len(files) != 2 || files[0].Tuples != 2 || files[1].Tuples != 2 {
		t.Fatalf("lane files after commit, abort, commit: %+v; want one per segment with 2 tuples", files)
	}
	if err := sb.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.Cat.Dump(snap), c.Cat().Dump(snap); got != want {
		t.Errorf("standby catalog:\n%s\nprimary catalog:\n%s", got, want)
	}
}
