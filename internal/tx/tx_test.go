package tx

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBeginCommitAbort(t *testing.T) {
	m := NewManager()
	t1 := m.Begin(ReadCommitted)
	t2 := m.Begin(ReadCommitted)
	if t1.XID() == t2.XID() {
		t.Fatal("xids must be unique")
	}
	if m.StatusOf(t1.XID()) != StatusInProgress {
		t.Error("t1 should be in progress")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2.Abort()
	if m.StatusOf(t1.XID()) != StatusCommitted || m.StatusOf(t2.XID()) != StatusAborted {
		t.Error("clog status wrong")
	}
	// Idempotency.
	if err := t1.Commit(); err != nil {
		t.Error("re-commit should be nil")
	}
	t2.Abort()
	if err := t2.Commit(); !errors.Is(err, ErrAborted) {
		t.Errorf("commit after abort = %v", err)
	}
}

func TestSnapshotVisibility(t *testing.T) {
	m := NewManager()
	writer := m.Begin(ReadCommitted)
	reader := m.Begin(ReadCommitted)

	snap := reader.Snapshot()
	if snap.XidVisible(writer.XID()) {
		t.Error("in-progress writer visible")
	}
	writer.Commit()
	// Read committed: a fresh snapshot sees the commit.
	if !reader.Snapshot().XidVisible(writer.XID()) {
		t.Error("committed writer invisible to new snapshot")
	}
	// The old snapshot still does not.
	if snap.XidVisible(writer.XID()) {
		t.Error("old snapshot must not see later commit")
	}
	// Own effects always visible.
	own := reader.Snapshot()
	if !own.XidVisible(reader.XID()) {
		t.Error("own xid invisible")
	}
	// Future xids invisible.
	future := m.Begin(ReadCommitted)
	if own.XidVisible(future.XID()) {
		t.Error("future xid visible")
	}
	future.Abort()
}

// TestHorizonHoldsBackForOlderRunningXIDs: a reader that began while a
// writer ran counts the writer as running in every snapshot it takes
// before the commit, so the horizon must not see the writer until the
// reader ends, even though the writer is no longer running.
func TestHorizonHoldsBackForOlderRunningXIDs(t *testing.T) {
	m := NewManager()
	writer := m.Begin(ReadCommitted)
	reader := m.Begin(ReadCommitted)
	snap := reader.Snapshot()
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if snap.XidVisible(writer.XID()) || m.Horizon().XidVisible(writer.XID()) {
		t.Fatal("horizon sees a commit an open reader's snapshot counts as running")
	}
	reader.Commit()
	if !m.Horizon().XidVisible(writer.XID()) {
		t.Error("horizon still holds back once no transaction runs")
	}
}

func TestSerializableSnapshotFixed(t *testing.T) {
	m := NewManager()
	ser := m.Begin(Serializable)
	w := m.Begin(ReadCommitted)
	w.Commit()
	if ser.Snapshot().XidVisible(w.XID()) {
		t.Error("serializable tx saw a commit after BEGIN")
	}
	rc := m.Begin(ReadCommitted)
	if !rc.Snapshot().XidVisible(w.XID()) {
		t.Error("read committed should see it")
	}
	ser.Commit()
	rc.Commit()
}

func TestRowVisible(t *testing.T) {
	m := NewManager()
	creator := m.Begin(ReadCommitted)
	creator.Commit()
	deleter := m.Begin(ReadCommitted)
	reader := m.Begin(ReadCommitted)
	snap := reader.Snapshot()
	// Row created by committed tx, delete in progress: visible.
	if !snap.RowVisible(creator.XID(), deleter.XID()) {
		t.Error("pending delete should not hide row")
	}
	deleter.Commit()
	if reader.Snapshot().RowVisible(creator.XID(), deleter.XID()) {
		t.Error("committed delete must hide row")
	}
	// Aborted creator: invisible.
	ab := m.Begin(ReadCommitted)
	ab.Abort()
	if reader.Snapshot().RowVisible(ab.XID(), InvalidXID) {
		t.Error("aborted insert visible")
	}
	reader.Commit()
}

func TestAbortedInsertInvisibleAndCallbacks(t *testing.T) {
	m := NewManager()
	tr := m.Begin(ReadCommitted)
	var aborted, committed bool
	tr.OnAbort(func() { aborted = true })
	tr.OnCommit(func() { committed = true })
	tr.Abort()
	if !aborted || committed {
		t.Errorf("callbacks: aborted=%v committed=%v", aborted, committed)
	}
	if !tr.Aborted() || !tr.Done() {
		t.Error("state flags wrong")
	}
}

func TestParseIsolationLevel(t *testing.T) {
	for s, want := range map[string]IsolationLevel{
		"read committed": ReadCommitted, "read uncommitted": ReadCommitted,
		"serializable": Serializable, "repeatable read": Serializable,
	} {
		got, err := ParseIsolationLevel(s)
		if err != nil || got != want {
			t.Errorf("%q -> %v, %v", s, got, err)
		}
	}
	if _, err := ParseIsolationLevel("chaos"); err == nil {
		t.Error("bad level accepted")
	}
}

func TestLockConflictsAndRelease(t *testing.T) {
	lm := NewLockManager()
	m := NewManager()
	reader := m.Begin(ReadCommitted)
	ddl := m.Begin(ReadCommitted)

	if err := lm.Acquire(reader.XID(), "t", AccessShare); err != nil {
		t.Fatal(err)
	}
	// Two shared locks coexist.
	reader2 := m.Begin(ReadCommitted)
	if err := lm.Acquire(reader2.XID(), "t", AccessShare); err != nil {
		t.Fatal(err)
	}
	// DDL blocks until both readers release (§5.2's ALTER vs SELECT).
	acquired := make(chan error, 1)
	go func() { acquired <- lm.Acquire(ddl.XID(), "t", AccessExclusive) }()
	select {
	case <-acquired:
		t.Fatal("exclusive lock granted while shared held")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(reader.XID())
	lm.ReleaseAll(reader2.XID())
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	if got := lm.HeldModes(ddl.XID())["t"]; got != AccessExclusive {
		t.Errorf("held = %v", got)
	}
	lm.ReleaseAll(ddl.XID())
}

func TestLockUpgradeSameXID(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(5, "t", AccessShare); err != nil {
		t.Fatal(err)
	}
	// Same transaction can strengthen its own lock without self-conflict.
	if err := lm.Acquire(5, "t", AccessExclusive); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(5)
}

func TestDeadlockDetection(t *testing.T) {
	lm := NewLockManager()
	// t10 locks A, t20 locks B, then each requests the other: deadlock.
	if err := lm.Acquire(10, "A", AccessExclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(20, "B", AccessExclusive); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		err := lm.Acquire(10, "B", AccessExclusive)
		if err != nil {
			lm.ReleaseAll(10)
		}
		errs <- err
	}()
	go func() {
		defer wg.Done()
		err := lm.Acquire(20, "A", AccessExclusive)
		if err != nil {
			lm.ReleaseAll(20)
		}
		errs <- err
	}()
	wg.Wait()
	close(errs)
	var deadlocks, oks int
	for err := range errs {
		if errors.Is(err, ErrDeadlock) {
			deadlocks++
		} else if err == nil {
			oks++
		}
	}
	if deadlocks != 1 || oks != 1 {
		t.Fatalf("deadlocks=%d oks=%d, want exactly one victim", deadlocks, oks)
	}
}

func TestWALAppendSubscribeReplay(t *testing.T) {
	w := NewWAL()
	w.Append(Record{Type: RecBegin, XID: 7})

	// A subscriber receives what is appended after it subscribed, LSNs
	// counting on from those before.
	var shipped []Record
	sub := w.Subscribe(func(r Record) { shipped = append(shipped, r) })
	w.Append(Record{Type: RecInsert, XID: 7, Table: "pg_class", RowID: 3, Data: []byte("row")})
	w.Append(Record{Type: RecCommit, XID: 7})
	if len(shipped) != 2 || shipped[0].Type != RecInsert || shipped[1].Type != RecCommit {
		t.Fatalf("shipped = %+v", shipped)
	}
	for i, r := range shipped {
		if r.LSN != uint64(i+2) {
			t.Errorf("record %d LSN = %d", i, r.LSN)
		}
	}
	w.Unsubscribe(sub)
	w.Append(Record{Type: RecBegin, XID: 8})
	if len(shipped) != 2 || w.NextLSN() != 5 {
		t.Errorf("after Unsubscribe: %d shipped, next LSN %d", len(shipped), w.NextLSN())
	}
}

// TestWALShipsInLSNOrder: appenders on many goroutines race for LSNs,
// and a subscriber still receives every record in LSN order.
func TestWALShipsInLSNOrder(t *testing.T) {
	w := NewWAL()
	var shipped []uint64 // written by the subscriber alone
	w.Subscribe(func(r Record) { shipped = append(shipped, r.LSN) })
	const writers, each = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				w.Append(Record{Type: RecBegin, XID: XID(i + 1)})
			}
		}()
	}
	wg.Wait()
	if len(shipped) != writers*each {
		t.Fatalf("%d records shipped, want %d", len(shipped), writers*each)
	}
	for i, lsn := range shipped {
		if lsn != uint64(i+1) {
			t.Fatalf("record %d shipped with LSN %d", i, lsn)
		}
	}
}

func TestWALRecordEncodeDecode(t *testing.T) {
	in := Record{LSN: 42, Type: RecInsert, XID: 9, Table: "pg_attribute", RowID: 77, Data: []byte{1, 2, 3}}
	buf := in.Encode()
	out, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.LSN != in.LSN || out.Type != in.Type || out.XID != in.XID ||
		out.Table != in.Table || out.RowID != in.RowID || string(out.Data) != string(in.Data) {
		t.Fatalf("round trip: %+v -> %+v", in, out)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeRecord(buf[:cut]); err == nil && cut < len(buf)-len(in.Data) {
			t.Errorf("no error decoding %d bytes", cut)
		}
	}
}

func TestConcurrentBeginCommit(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				tr := m.Begin(ReadCommitted)
				_ = tr.Snapshot()
				if j%2 == 0 {
					tr.Commit()
				} else {
					tr.Abort()
				}
			}
		}()
	}
	wg.Wait()
}

// Property: MVCC visibility is consistent — a row is visible iff its
// creator is visible and its deleter (if any) is not, for random
// interleavings of committed/aborted/in-progress transactions.
func TestQuickMVCCVisibility(t *testing.T) {
	f := func(commitCreator, abortCreator, commitDeleter bool) bool {
		m := NewManager()
		creator := m.Begin(ReadCommitted)
		if commitCreator {
			creator.Commit()
		} else if abortCreator {
			creator.Abort()
		}
		deleter := m.Begin(ReadCommitted)
		if commitDeleter {
			deleter.Commit()
		}
		reader := m.Begin(ReadCommitted)
		defer reader.Commit()
		snap := reader.Snapshot()

		creatorVisible := commitCreator
		deleterVisible := commitDeleter
		want := creatorVisible && !deleterVisible
		got := snap.RowVisible(creator.XID(), deleter.XID())
		// Row with no deleter: visible iff creator visible.
		gotNoDel := snap.RowVisible(creator.XID(), InvalidXID)
		return got == want && gotNoDel == creatorVisible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
