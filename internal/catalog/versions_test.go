package catalog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hawq/internal/tx"
	"hawq/internal/types"
)

// visibleRows counts the versions of a system table snap sees.
func visibleRows(t *testing.T, c *Catalog, table string, snap tx.Snapshot) int {
	t.Helper()
	st, err := c.SysTable(table)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	st.Select(snap, nil, func(uint64, types.Row) bool {
		n++
		return true
	})
	return n
}

// TestAbortedSegFileUpdateThenCommitLeavesOneVersion: an aborted
// transaction's stamp on a lane's version does not count, so the next
// writer retires that version and the lane keeps one visible version,
// on the primary and on a replica that replays the log.
func TestAbortedSegFileUpdateThenCommitLeavesOneVersion(t *testing.T) {
	wal := tx.NewWAL()
	c, m := New(wal), tx.NewManager()
	replica := New(nil)
	wal.Subscribe(func(r tx.Record) {
		if err := replica.ApplyRecord(r); err != nil {
			t.Errorf("apply: %v", err)
		}
	})
	setup := m.Begin(tx.ReadCommitted)
	oid, err := c.CreateTable(setup, &TableDesc{Name: "t", Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	lane := SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: "/hawq/t/0/1"}
	c.AddSegFile(setup, lane)
	setup.Commit()

	for _, commit := range []bool{false, true} {
		w := m.Begin(tx.ReadCommitted)
		lane.LogicalLen, lane.Tuples = 128, 2
		if err := c.UpdateSegFile(w, lane); err != nil {
			t.Fatal(err)
		}
		if commit {
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			w.Abort()
		}
	}
	r := m.Begin(tx.ReadCommitted)
	defer r.Commit()
	files := c.SegFiles(r.Snapshot(), oid, 0)
	if len(files) != 1 || files[0].Tuples != 2 {
		t.Fatalf("lane versions after abort then commit: %+v; want one with 2 tuples", files)
	}
	if got, want := replica.Dump(r.Snapshot()), c.Dump(r.Snapshot()); got != want {
		t.Errorf("replica:\n%s\nprimary:\n%s", got, want)
	}
}

// TestConcurrentUpdatesOfOneRowRefuseTheSecond: of two open
// transactions that update one catalog row, the second is refused with
// ErrConcurrentUpdate whichever writer it uses, and once both finish
// one version of the row is visible.
func TestConcurrentUpdatesOfOneRowRefuseTheSecond(t *testing.T) {
	cases := []struct {
		name   string
		table  string
		create func(c *Catalog, t *tx.Tx) error
		update func(c *Catalog, t *tx.Tx, i int) error
	}{
		{
			name:  "UpdateTask",
			table: SysTask,
			create: func(c *Catalog, t *tx.Tx) error {
				return c.CreateTask(t, TaskDesc{Name: "job", Kind: TaskKindCompact, Target: "t"})
			},
			update: func(c *Catalog, t *tx.Tx, i int) error {
				return c.UpdateTask(t, TaskDesc{Name: "job", Kind: TaskKindCompact, Target: "t", Owner: fmt.Sprint("owner", i)})
			},
		},
		{
			name:  "SetSegmentStatus",
			table: SysSegment,
			create: func(c *Catalog, t *tx.Tx) error {
				c.RegisterSegment(t, SegmentInfo{ID: 0, Host: "h", Status: "up"})
				return nil
			},
			update: func(c *Catalog, t *tx.Tx, i int) error {
				return c.SetSegmentStatus(t, 0, []string{"down", "up"}[i])
			},
		},
		{
			name:  "CaQL UPDATE",
			table: SysResQueue,
			create: func(c *Catalog, t *tx.Tx) error {
				return c.CreateResourceQueue(t, ResQueueDesc{Name: "q", ActiveStatements: 1})
			},
			update: func(c *Catalog, t *tx.Tx, i int) error {
				_, err := c.CaQL(t, fmt.Sprintf("UPDATE hawq_resqueue SET activelimit = %d WHERE rsqname = 'q'", 10+i))
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, m := newEnv()
			setup := m.Begin(tx.ReadCommitted)
			if err := tc.create(c, setup); err != nil {
				t.Fatal(err)
			}
			setup.Commit()

			first, second := m.Begin(tx.ReadCommitted), m.Begin(tx.ReadCommitted)
			if err := tc.update(c, first, 0); err != nil {
				t.Fatal(err)
			}
			if err := tc.update(c, second, 1); !errors.Is(err, ErrConcurrentUpdate) {
				t.Fatalf("second writer: %v; want ErrConcurrentUpdate", err)
			}
			second.Abort()
			if err := first.Commit(); err != nil {
				t.Fatal(err)
			}
			r := m.Begin(tx.ReadCommitted)
			defer r.Commit()
			if n := visibleRows(t, c, tc.table, r.Snapshot()); n != 1 {
				t.Fatalf("%d visible versions of the row; want 1", n)
			}
			// A writer that starts after the commit updates the new
			// version.
			third := m.Begin(tx.ReadCommitted)
			if err := tc.update(c, third, 1); err != nil {
				t.Fatalf("writer after the commit: %v", err)
			}
			third.Commit()
			if n := visibleRows(t, c, tc.table, m.Begin(tx.ReadCommitted).Snapshot()); n != 1 {
				t.Fatalf("%d visible versions after a third update; want 1", n)
			}
		})
	}
}

// TestRacingUpdatesOfOneRowLeaveOneVersion: writers updating one task
// row from several goroutines at once each commit or are refused, and
// the row ends with one visible version.
func TestRacingUpdatesOfOneRowLeaveOneVersion(t *testing.T) {
	c, m := newEnv()
	setup := m.Begin(tx.ReadCommitted)
	if err := c.CreateTask(setup, TaskDesc{Name: "job", Kind: TaskKindCompact, Target: "t"}); err != nil {
		t.Fatal(err)
	}
	setup.Commit()
	var wg sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := m.Begin(tx.ReadCommitted)
				err := c.UpdateTask(tr, TaskDesc{Name: "job", Kind: TaskKindCompact, Target: "t", Owner: fmt.Sprint(w, "/", i)})
				switch {
				case err == nil:
					if tr.Commit() == nil {
						committed.Add(1)
					}
				case errors.Is(err, ErrConcurrentUpdate):
					tr.Abort()
				default:
					tr.Abort()
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r := m.Begin(tx.ReadCommitted)
	defer r.Commit()
	if n := visibleRows(t, c, SysTask, r.Snapshot()); n != 1 || committed.Load() == 0 {
		t.Fatalf("%d visible versions after %d committed updates; want 1", n, committed.Load())
	}
}

// TestVacuumKeepsWhatAReaderOfAnOlderWriterSees: a writer begins, then a
// reader, whose snapshot counts the writer as running. The writer
// updates a lane and commits, and VACUUM runs while the reader is open:
// the reader must still read the lane's old version.
func TestVacuumKeepsWhatAReaderOfAnOlderWriterSees(t *testing.T) {
	c, m := newEnv()
	setup := m.Begin(tx.ReadCommitted)
	oid, err := c.CreateTable(setup, &TableDesc{Name: "t", Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	lane := SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: "/hawq/t/0/1"}
	if err := c.AddSegFile(setup, lane); err != nil {
		t.Fatal(err)
	}
	setup.Commit()

	w := m.Begin(tx.ReadCommitted)
	r := m.Begin(tx.ReadCommitted)
	defer r.Commit()
	snap := r.Snapshot()
	lane.LogicalLen, lane.Tuples = 128, 2
	if err := c.UpdateSegFile(w, lane); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	c.VacuumAll(m.Horizon())
	if files := c.SegFiles(snap, oid, 0); len(files) != 1 || files[0].Tuples != 0 {
		t.Fatalf("reader after vacuum sees %+v; want the lane's old version", files)
	}
}

// TestVacuumReclaimsAbortedCreators: the versions a rolled-back
// transaction created — a new lane and a lane's next version — are
// visible to no snapshot, and VACUUM leaves none of them.
func TestVacuumReclaimsAbortedCreators(t *testing.T) {
	c, m := newEnv()
	setup := m.Begin(tx.ReadCommitted)
	oid, err := c.CreateTable(setup, &TableDesc{Name: "t", Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	lane := SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: "/hawq/t/0/1"}
	if err := c.AddSegFile(setup, lane); err != nil {
		t.Fatal(err)
	}
	setup.Commit()

	a := m.Begin(tx.ReadCommitted)
	if err := c.AddSegFile(a, SegFile{TableOID: oid, SegmentID: 0, SegNo: 2, Path: "/hawq/t/0/2"}); err != nil {
		t.Fatal(err)
	}
	lane.LogicalLen, lane.Tuples = 128, 2
	if err := c.UpdateSegFile(a, lane); err != nil {
		t.Fatal(err)
	}
	a.Abort()
	c.VacuumAll(m.Horizon())

	st, _ := c.SysTable(SysAoseg)
	rows, _ := st.state()
	for _, r := range rows {
		if m.StatusOf(r.xmin) == tx.StatusAborted {
			t.Errorf("version %d created by aborted xid %d survives VACUUM: %v", r.id, r.xmin, r.data)
		}
	}
	r := m.Begin(tx.ReadCommitted)
	defer r.Commit()
	if files := c.SegFiles(r.Snapshot(), oid, 0); len(files) != 1 || files[0].Tuples != 0 {
		t.Fatalf("after vacuum files = %+v; want the committed lane alone", files)
	}
}

// TestAddSegFileRefusesARegisteredLane: a lane with a visible version
// cannot be registered again, by its own transaction or a later one,
// until a committed drop retires it.
func TestAddSegFileRefusesARegisteredLane(t *testing.T) {
	c, m := newEnv()
	w := m.Begin(tx.ReadCommitted)
	oid, err := c.CreateTable(w, &TableDesc{Name: "t", Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	lane := SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: "/hawq/t/0/1"}
	if err := c.AddSegFile(w, lane); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSegFile(w, lane); !errors.Is(err, ErrSegFileExists) {
		t.Fatalf("second AddSegFile in one transaction: %v; want ErrSegFileExists", err)
	}
	w.Commit()
	other := SegFile{TableOID: oid, SegmentID: 1, SegNo: 1, Path: "/hawq/t/1/1"}
	w2 := m.Begin(tx.Serializable)
	if err := c.AddSegFile(w2, lane); !errors.Is(err, ErrSegFileExists) {
		t.Fatalf("AddSegFile of a committed lane: %v; want ErrSegFileExists", err)
	}
	if err := c.AddSegFile(w2, other); err != nil {
		t.Fatalf("the same segno on another segment: %v", err)
	}
	if err := c.DropSegFiles(w2, oid); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSegFile(w2, lane); err != nil {
		t.Fatalf("AddSegFile after its own drop: %v", err)
	}
	w2.Commit()
	r := m.Begin(tx.ReadCommitted)
	defer r.Commit()
	if files := c.AllSegFiles(r.Snapshot(), oid); len(files) != 1 {
		t.Fatalf("lanes after drop and re-register = %+v; want one", files)
	}
}
