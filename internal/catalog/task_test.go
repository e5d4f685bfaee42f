package catalog

import (
	"strings"
	"testing"
	"time"

	"hawq/internal/tx"
)

func TestTaskCRUDAndMVCC(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	d := TaskDesc{
		Name:     "Nightly_Stats",
		Kind:     TaskKindStatement,
		Target:   "ANALYZE",
		Interval: 12 * time.Hour,
		NextRun:  42,
	}
	if err := c.CreateTask(tr, d); err != nil {
		t.Fatal(err)
	}
	// Names are lowercased and duplicates rejected.
	if err := c.CreateTask(tr, d); err == nil {
		t.Fatal("duplicate CreateTask succeeded")
	}
	got, err := c.LookupTask(tr.Snapshot(), "NIGHTLY_stats")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "nightly_stats" || got.State != TaskQueued || got.Interval != 12*time.Hour || got.NextRun != 42 {
		t.Errorf("task = %+v", got)
	}
	// Invisible to a concurrent snapshot until commit.
	other := m.Begin(tx.ReadCommitted)
	if _, err := c.LookupTask(other.Snapshot(), "nightly_stats"); err == nil {
		t.Error("uncommitted task visible to concurrent txn")
	}
	other.Abort()
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}

	// Claim transition is an MVCC update.
	tr = m.Begin(tx.ReadCommitted)
	got.State = TaskClaimed
	got.Owner = "qd-1"
	got.LeaseExpiry = 99
	if err := c.UpdateTask(tr, *got); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	tr = m.Begin(tx.ReadCommitted)
	got, err = c.LookupTask(tr.Snapshot(), "nightly_stats")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != TaskClaimed || got.Owner != "qd-1" || got.LeaseExpiry != 99 {
		t.Errorf("claimed task = %+v", got)
	}

	// Drop removes it; a second drop errors.
	if err := c.DropTask(tr, "nightly_stats"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTask(tr, "nightly_stats"); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("double drop: %v", err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	tr = m.Begin(tx.ReadCommitted)
	if got := c.ListTasks(tr.Snapshot()); len(got) != 0 {
		t.Errorf("tasks after drop: %+v", got)
	}
	tr.Abort()
}

func TestTaskRowsReplicateThroughWALRecords(t *testing.T) {
	c, m := newEnv()
	replica := New(nil)
	sub := c.WAL().Subscribe(func(r tx.Record) {
		if err := replica.ApplyRecord(r); err != nil {
			t.Errorf("replica apply: %v", err)
		}
	})
	defer c.WAL().Unsubscribe(sub)

	tr := m.Begin(tx.ReadCommitted)
	if err := c.CreateTask(tr, TaskDesc{Name: "rollup", Kind: TaskKindStatement, Target: "SELECT 1", Interval: time.Minute}); err != nil {
		t.Fatal(err)
	}
	c.SetRelStats(tr, 3, RelStats{Rows: 17})
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}

	// The replica sees the committed task row and the stored row count
	// the sweep measures churn against through record replay alone — the
	// property standby catalogs and crash recovery rely on.
	check := m.Begin(tx.ReadCommitted)
	defer check.Abort()
	d, err := replica.LookupTask(check.Snapshot(), "rollup")
	if err != nil {
		t.Fatalf("replica task: %v", err)
	}
	if d.Interval != time.Minute || d.State != TaskQueued {
		t.Errorf("replica task = %+v", d)
	}
	if rs, ok := replica.RelStatsFor(check.Snapshot(), 3); !ok || rs.Rows != 17 {
		t.Errorf("replica RelStatsFor(3) = %+v, %v; want 17 rows", rs, ok)
	}
}
