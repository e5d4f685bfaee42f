package task

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/clock"
	"hawq/internal/retry"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// recordingExec records every execution and fails a task the first
// failN times it runs.
type recordingExec struct {
	mu    sync.Mutex
	runs  []string
	seen  map[string]int
	failN map[string]int
}

func newRecordingExec() *recordingExec {
	return &recordingExec{seen: map[string]int{}, failN: map[string]int{}}
}

func (r *recordingExec) ExecuteTask(_ context.Context, d *catalog.TaskDesc) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[d.Name]++
	r.runs = append(r.runs, fmt.Sprintf("%s:%s:%s", d.Kind, d.Name, d.Target))
	if r.seen[d.Name] <= r.failN[d.Name] {
		return errors.New("injected task failure")
	}
	return nil
}

func (r *recordingExec) count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[name]
}

type env struct {
	cat   *catalog.Catalog
	mgr   *tx.Manager
	sim   *clock.Sim
	exec  *recordingExec
	sched *Scheduler
}

func newEnv(t *testing.T, mut func(*Config)) *env {
	t.Helper()
	e := &env{
		cat:  catalog.New(tx.NewWAL()),
		mgr:  tx.NewManager(),
		sim:  clock.NewSim(time.Unix(0, 0)),
		exec: newRecordingExec(),
	}
	cfg := Config{
		Clock: e.sim,
		Cat:   func() *catalog.Catalog { return e.cat },
		TxMgr: func() *tx.Manager { return e.mgr },
		Exec:  e.exec,
		Owner: "qd-test",
		Lease: 10 * time.Second,
		Retry: retry.Policy{MaxAttempts: 3, BaseDelay: time.Second, MaxDelay: time.Second, Clock: e.sim},
	}
	if mut != nil {
		mut(&cfg)
	}
	e.sched = New(cfg)
	return e
}

func (e *env) inTx(t *testing.T, f func(tr *tx.Tx) error) {
	t.Helper()
	tr := e.mgr.Begin(tx.ReadCommitted)
	if err := f(tr); err != nil {
		tr.Abort()
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
}

func (e *env) task(t *testing.T, name string) *catalog.TaskDesc {
	t.Helper()
	tr := e.mgr.Begin(tx.ReadCommitted)
	defer tr.Abort()
	d, err := e.cat.LookupTask(tr.Snapshot(), name)
	if err != nil {
		t.Fatalf("task %s: %v", name, err)
	}
	return d
}

func TestPeriodicTaskRunsAndReschedules(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	e.inTx(t, func(tr *tx.Tx) error {
		return e.cat.CreateTask(tr, catalog.TaskDesc{
			Name: "rollup", Kind: catalog.TaskKindStatement, Target: "SELECT 1",
			Interval: 10 * time.Second, NextRun: e.sim.Now().Add(5 * time.Second).UnixNano(),
		})
	})

	// Not due yet.
	e.sched.TickOnce(ctx)
	if got := e.exec.count("rollup"); got != 0 {
		t.Fatalf("ran %d times before due", got)
	}

	// Due: runs once, then requeues one interval out.
	e.sim.Advance(5 * time.Second)
	e.sched.TickOnce(ctx)
	if got := e.exec.count("rollup"); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
	d := e.task(t, "rollup")
	if d.State != catalog.TaskQueued || d.Owner != "" || d.LastRun != e.sim.Now().UnixNano() {
		t.Errorf("after run: %+v", d)
	}
	if want := e.sim.Now().Add(10 * time.Second).UnixNano(); d.NextRun != want {
		t.Errorf("NextRun = %d, want %d", d.NextRun, want)
	}

	// Same instant: nothing new due.
	e.sched.TickOnce(ctx)
	if got := e.exec.count("rollup"); got != 1 {
		t.Fatalf("reran before interval: %d", got)
	}

	// One interval later it fires again.
	e.sim.Advance(10 * time.Second)
	e.sched.TickOnce(ctx)
	if got := e.exec.count("rollup"); got != 2 {
		t.Fatalf("runs after interval = %d, want 2", got)
	}
}

func TestFailedTaskRetriesWithPersistedBackoff(t *testing.T) {
	e := newEnv(t, nil)
	e.exec.failN["flaky"] = 2
	ctx := context.Background()
	e.inTx(t, func(tr *tx.Tx) error {
		return e.cat.CreateTask(tr, catalog.TaskDesc{
			Name: "flaky", Kind: catalog.TaskKindStatement, Target: "SELECT 1",
			Interval: time.Minute, NextRun: e.sim.Now().UnixNano(),
		})
	})

	e.sched.TickOnce(ctx)
	d := e.task(t, "flaky")
	if d.Retries != 1 || d.State != catalog.TaskQueued || d.LastError == "" {
		t.Fatalf("after first failure: %+v", d)
	}
	if d.NextRun <= e.sim.Now().UnixNano() {
		t.Fatalf("no backoff: NextRun %d, now %d", d.NextRun, e.sim.Now().UnixNano())
	}

	// The retry is spaced by the persisted NextRun, not an in-process
	// timer: ticking before it is a no-op.
	e.sched.TickOnce(ctx)
	if got := e.exec.count("flaky"); got != 1 {
		t.Fatalf("retried before backoff: %d", got)
	}
	e.sim.Advance(5 * time.Second)
	e.sched.TickOnce(ctx) // second failure
	e.sim.Advance(5 * time.Second)
	e.sched.TickOnce(ctx) // third attempt succeeds
	if got := e.exec.count("flaky"); got != 3 {
		t.Fatalf("total attempts = %d, want 3", got)
	}
	d = e.task(t, "flaky")
	if d.Retries != 0 || d.LastError != "" || d.State != catalog.TaskQueued {
		t.Errorf("after success: %+v", d)
	}
}

func TestOneShotTaskExhaustsRetriesToDone(t *testing.T) {
	e := newEnv(t, nil)
	e.exec.failN["doomed"] = 99
	ctx := context.Background()
	e.inTx(t, func(tr *tx.Tx) error {
		return e.cat.CreateTask(tr, catalog.TaskDesc{
			Name: "doomed", Kind: catalog.TaskKindStatement, Target: "SELECT 1",
			NextRun: e.sim.Now().UnixNano(),
		})
	})
	for i := 0; i < 5; i++ {
		e.sched.TickOnce(ctx)
		e.sim.Advance(2 * time.Second)
	}
	if got := e.exec.count("doomed"); got != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts 3", got)
	}
	d := e.task(t, "doomed")
	if d.State != catalog.TaskDone || d.LastError == "" {
		t.Errorf("exhausted one-shot: %+v", d)
	}
}

func TestExpiredLeaseIsReclaimed(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	// A dead owner's claim, mid-lease.
	e.inTx(t, func(tr *tx.Tx) error {
		return e.cat.CreateTask(tr, catalog.TaskDesc{
			Name: "orphan", Kind: catalog.TaskKindStatement, Target: "SELECT 1",
			State: catalog.TaskClaimed, Owner: "qd-dead",
			LeaseExpiry: e.sim.Now().Add(5 * time.Second).UnixNano(),
			NextRun:     e.sim.Now().UnixNano(),
		})
	})

	// Lease still honoured: the survivor must not steal it.
	e.sched.TickOnce(ctx)
	if got := e.exec.count("orphan"); got != 0 {
		t.Fatalf("ran under a live foreign lease: %d", got)
	}

	// Lease lapsed: reclaimed and run by this owner.
	e.sim.Advance(6 * time.Second)
	e.sched.TickOnce(ctx)
	if got := e.exec.count("orphan"); got != 1 {
		t.Fatalf("reclaimed runs = %d, want 1", got)
	}
	if d := e.task(t, "orphan"); d.State != catalog.TaskDone {
		t.Errorf("after reclaim+run: %+v", d)
	}
}

func TestPausedSchedulerTouchesNothing(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	e.inTx(t, func(tr *tx.Tx) error {
		return e.cat.CreateTask(tr, catalog.TaskDesc{
			Name: "waiting", Kind: catalog.TaskKindStatement, Target: "SELECT 1",
			NextRun: e.sim.Now().UnixNano(),
		})
	})
	e.sched.Pause()
	e.sched.TickOnce(ctx)
	if got := e.exec.count("waiting"); got != 0 {
		t.Fatalf("paused scheduler ran %d tasks", got)
	}
	e.sched.Resume()
	e.sched.TickOnce(ctx)
	if got := e.exec.count("waiting"); got != 1 {
		t.Fatalf("resumed runs = %d, want 1", got)
	}
}

// sweepTable registers a plain table with one committed segfile layout.
func sweepTable(t *testing.T, e *env, name string, files []catalog.SegFile) int64 {
	t.Helper()
	var oid int64
	e.inTx(t, func(tr *tx.Tx) error {
		var err error
		oid, err = e.cat.CreateTable(tr, &catalog.TableDesc{
			Name:   name,
			Schema: types.NewSchema(types.Column{Name: "k", Kind: types.KindInt64}),
			Dist:   catalog.DistPolicy{Cols: []int{0}},
		})
		if err != nil {
			return err
		}
		for _, f := range files {
			f.TableOID = oid
			e.cat.AddSegFile(tr, f)
		}
		return nil
	})
	return oid
}

// smallFile is a committed segfile of one row and length bytes on
// segment seg.
func smallFile(seg, segno int, length int64) catalog.SegFile {
	return catalog.SegFile{SegmentID: seg, SegNo: segno, Path: fmt.Sprintf("/t/%d/%d", seg, segno), LogicalLen: length, Tuples: 1}
}

// fragmented is SmallFilesPerSegment undersized files on segment 0.
func fragmented() []catalog.SegFile {
	var files []catalog.SegFile
	for i := 1; i <= SmallFilesPerSegment; i++ {
		files = append(files, smallFile(0, i, SmallFileBytes-int64(i)))
	}
	return files
}

func TestSweepEnqueuesCompactionOnFragmentation(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	sweepTable(t, e, "fragmented", fragmented())
	// scattered: undersized files spread across segments, none at the
	// per-segment threshold.
	var scattered, chunky []catalog.SegFile
	for i := 0; i < SmallFilesPerSegment; i++ {
		scattered = append(scattered, smallFile(i, 1, 100))
		// chunky: plenty of files, all full-sized.
		chunky = append(chunky, smallFile(0, i+1, SmallFileBytes))
	}
	// short: one undersized file short of the threshold.
	sweepTable(t, e, "short", fragmented()[1:])
	sweepTable(t, e, "scattered", scattered)
	sweepTable(t, e, "chunky", chunky)

	e.sched.TickOnce(ctx)
	if got := e.exec.count("auto_compact_fragmented"); got != 1 {
		t.Errorf("auto_compact_fragmented runs = %d, want 1", got)
	}
	for _, name := range []string{"auto_compact_short", "auto_compact_scattered", "auto_compact_chunky"} {
		if got := e.exec.count(name); got != 0 {
			t.Errorf("%s ran %d times, want 0", name, got)
		}
	}
}

func TestSweepDisabledLeavesUserTasksOnly(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.DisableSweep = true })
	ctx := context.Background()
	sweepTable(t, e, "busy", fragmented())
	e.inTx(t, func(tr *tx.Tx) error {
		return e.cat.CreateTask(tr, catalog.TaskDesc{
			Name: "user_job", Kind: catalog.TaskKindStatement, Target: "SELECT 1",
			NextRun: e.sim.Now().UnixNano(),
		})
	})
	e.sched.TickOnce(ctx)
	if got := e.exec.count("auto_compact_busy"); got != 0 {
		t.Errorf("sweep ran with DisableSweep: %d", got)
	}
	if got := e.exec.count("user_job"); got != 1 {
		t.Errorf("user task runs = %d, want 1", got)
	}
}

func TestStartStopDrivesTickerUnderSim(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.Tick = time.Second })
	e.inTx(t, func(tr *tx.Tx) error {
		return e.cat.CreateTask(tr, catalog.TaskDesc{
			Name: "ticked", Kind: catalog.TaskKindStatement, Target: "SELECT 1",
			NextRun: e.sim.Now().UnixNano(),
		})
	})
	e.sched.Start()
	defer e.sched.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for e.exec.count("ticked") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduler never ran the due task")
		}
		e.sim.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}
	e.sched.Stop() // idempotent
}
