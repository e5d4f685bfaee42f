// Package task is the background maintenance daemon: a crash-safe
// scheduler for work the engine does when nobody is asking. Tasks are
// rows of the hawq_task system table, so their state rides the master
// WAL, survives crashes, and replicates to the standby like any other
// catalog object. The scheduler claims a due task under an owner lease
// (expiry-based reclaim hands abandoned tasks to the survivor after a
// crash or failover), runs it through an engine-provided Executor, and
// reschedules or retires it transactionally. All time flows through
// clock.Clock so the chaos harness drives the whole machine under
// clock.Sim.
//
// The daemon also originates its own work: a sweep pass reads each
// table's segment files (hawq_aoseg) once and enqueues compaction when
// a segment of the table has fragmented into undersized segfiles.
package task

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/clock"
	"hawq/internal/obs"
	"hawq/internal/retry"
	"hawq/internal/tx"
)

// Scheduler metrics in the process-wide obs registry.
var (
	metRuns     = obs.GetCounter("task.runs")
	metFailures = obs.GetCounter("task.failures")
	metRetries  = obs.GetCounter("task.retries")
	metReclaims = obs.GetCounter("task.lease_reclaims")
	metAutoCmp  = obs.GetCounter("task.compact_auto")
	metRunMS    = obs.GetHistogram("task.run_ms", []int64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000})
)

// AutoPrefix marks scheduler-originated tasks: the sweep creates them
// one-shot and the scheduler deletes them once they succeed (or exhaust
// their retries), so the sweep can re-enqueue when thresholds cross
// again.
const AutoPrefix = "auto_"

// The compaction thresholds, read by the sweep and the compaction alike
// through Fragments.
const (
	SmallFileBytes       = 64 << 10
	SmallFilesPerSegment = 3
)

// IsAuto reports whether a task was enqueued by the sweep rather than
// CREATE TASK.
func IsAuto(name string) bool { return strings.HasPrefix(name, AutoPrefix) }

// Executor runs one claimed task to effect. The engine implements it:
// statement tasks run through a normal session (admission, work_mem,
// statement timeout), compaction through the storage swap.
type Executor interface {
	ExecuteTask(ctx context.Context, d *catalog.TaskDesc) error
}

// Config wires a Scheduler to its master. Cat and TxMgr are functions
// because promotion swaps the live catalog and transaction manager under
// a running engine — the scheduler re-resolves both every pass.
type Config struct {
	Clock clock.Clock
	Cat   func() *catalog.Catalog
	TxMgr func() *tx.Manager
	Exec  Executor
	// Owner identifies this scheduler instance in task leases.
	Owner string
	// Tick is the poll period (default 1s).
	Tick time.Duration
	// Lease is how long a claim is honoured before the reclaim sweep
	// hands the task back to the queue (default 30s). It bounds how long
	// a crashed owner can stall a task.
	Lease time.Duration
	// Retry bounds per-cycle execution retries; its backoff spaces the
	// requeue times (default: 5 attempts, 1s base, 30s cap).
	Retry retry.Policy

	// DisableSweep turns off scheduler-originated work (auto-compaction),
	// leaving only user-defined tasks.
	DisableSweep bool
}

func (c Config) filled() Config {
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.Lease <= 0 {
		c.Lease = 30 * time.Second
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry = retry.Policy{MaxAttempts: 5, BaseDelay: time.Second, MaxDelay: 30 * time.Second, Clock: c.Clock}
	}
	return c
}

// Scheduler is the master's background maintenance loop. Start spawns
// one goroutine; Pause/Resume gate it across standby/primary role
// changes without tearing the loop down.
type Scheduler struct {
	cfg    Config
	cancel context.CancelFunc
	done   chan struct{}
	paused atomic.Bool
}

// New builds a scheduler (not yet running).
func New(cfg Config) *Scheduler {
	return &Scheduler{cfg: cfg.filled(), done: make(chan struct{})}
}

// Start launches the scheduler loop.
func (s *Scheduler) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go s.run(ctx)
}

// Stop tears the loop down and waits for it to exit. Idempotent: done
// stays closed, so repeated calls return immediately.
func (s *Scheduler) Stop() {
	if s.cancel != nil {
		s.cancel()
		<-s.done
	}
}

// Pause suspends task processing (standby role): the loop keeps ticking
// but touches nothing.
func (s *Scheduler) Pause() { s.paused.Store(true) }

// Resume reactivates processing (promotion to primary). The first pass
// after Resume reclaims leases the failed primary left behind as soon as
// they expire.
func (s *Scheduler) Resume() { s.paused.Store(false) }

func (s *Scheduler) run(ctx context.Context) {
	defer close(s.done)
	tick := s.cfg.Clock.NewTicker(s.cfg.Tick)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C():
		}
		if s.paused.Load() {
			continue
		}
		s.TickOnce(ctx)
	}
}

// TickOnce runs one full scheduler pass: reclaim expired leases, sweep
// for threshold-triggered maintenance, then claim and run every due
// task. Exported so tests (and the chaos harness) can drive passes
// without waiting on the ticker.
func (s *Scheduler) TickOnce(ctx context.Context) {
	if ctx.Err() != nil || s.paused.Load() {
		return
	}
	now := s.cfg.Clock.Now().UnixNano()
	s.reclaimExpired(now)
	if !s.cfg.DisableSweep {
		s.sweep(now)
	}
	for ctx.Err() == nil {
		d, ok := s.claimNext(now)
		if !ok {
			return
		}
		s.runTask(ctx, d)
	}
}

// begin opens a maintenance transaction against the current master
// state.
func (s *Scheduler) begin() (*catalog.Catalog, *tx.Tx) {
	return s.cfg.Cat(), s.cfg.TxMgr().Begin(tx.ReadCommitted)
}

// reclaimExpired returns claimed/running tasks whose lease has lapsed to
// the queue. After a master crash or failover the promoted catalog still
// shows the dead owner's claims; this is how the survivor takes them
// over. The task's effects are transactional, so a reclaimed task that
// half-ran re-runs from scratch without double effect.
func (s *Scheduler) reclaimExpired(now int64) {
	cat, t := s.begin()
	n := 0
	for _, d := range cat.ListTasks(t.Snapshot()) {
		if (d.State == catalog.TaskClaimed || d.State == catalog.TaskRunning) && d.LeaseExpiry <= now {
			d.State = catalog.TaskQueued
			d.Owner = ""
			d.LeaseExpiry = 0
			if err := cat.UpdateTask(t, *d); err != nil {
				t.Abort()
				return
			}
			n++
		}
	}
	if n == 0 {
		t.Abort()
		return
	}
	if err := t.Commit(); err == nil {
		metReclaims.Add(int64(n))
	}
}

// sweep originates maintenance work from catalog state: compaction for
// fragmented tables. Each candidate gets a one-shot auto task unless one
// already exists.
func (s *Scheduler) sweep(now int64) {
	cat, t := s.begin()
	snap := t.Snapshot()
	existing := map[string]bool{}
	for _, d := range cat.ListTasks(snap) {
		existing[d.Name] = true
	}
	enqueued := 0
	for _, desc := range cat.ListTables(snap) {
		if desc.IsExternal() || desc.IsPartitionParent() {
			continue
		}
		name := AutoPrefix + "compact_" + strings.ToLower(desc.Name)
		if len(Fragments(cat.AllSegFiles(snap, desc.OID))) > 0 && !existing[name] {
			if err := cat.CreateTask(t, catalog.TaskDesc{
				Name: name, Kind: catalog.TaskKindCompact, Target: desc.Name, NextRun: now,
			}); err == nil {
				enqueued++
				metAutoCmp.Inc()
			}
		}
	}
	if enqueued == 0 {
		t.Abort()
		return
	}
	//hawqcheck:ignore errdrop — a failed WAL commit just delays the sweep to the next tick
	t.Commit()
}

// Fragments returns the undersized files (rows in fewer than
// SmallFileBytes) of each segment that has SmallFilesPerSegment of them,
// one list per segment in the order files first name it: what the sweep
// enqueues a compaction for and what the compaction merges.
func Fragments(files []catalog.SegFile) [][]catalog.SegFile {
	bySeg := map[int][]catalog.SegFile{}
	var segs []int
	for _, sf := range files {
		if sf.Tuples > 0 && sf.LogicalLen > 0 && sf.LogicalLen < SmallFileBytes {
			if bySeg[sf.SegmentID] == nil {
				segs = append(segs, sf.SegmentID)
			}
			bySeg[sf.SegmentID] = append(bySeg[sf.SegmentID], sf)
		}
	}
	var out [][]catalog.SegFile
	for _, seg := range segs {
		if len(bySeg[seg]) >= SmallFilesPerSegment {
			out = append(out, bySeg[seg])
		}
	}
	return out
}

// claimNext claims the most overdue queued task, transitioning it
// queued→claimed under this owner's lease. ok is false when nothing is
// due, or when another scheduler claimed the pick first: its update
// wins, this one gets catalog.ErrConcurrentUpdate and aborts, and the
// next tick looks again.
func (s *Scheduler) claimNext(now int64) (*catalog.TaskDesc, bool) {
	cat, t := s.begin()
	var pick *catalog.TaskDesc
	for _, d := range cat.ListTasks(t.Snapshot()) {
		if d.State != catalog.TaskQueued || d.NextRun > now {
			continue
		}
		if pick == nil || d.NextRun < pick.NextRun {
			pick = d
		}
	}
	if pick == nil {
		t.Abort()
		return nil, false
	}
	pick.State = catalog.TaskClaimed
	pick.Owner = s.cfg.Owner
	pick.LeaseExpiry = now + int64(s.cfg.Lease)
	if err := cat.UpdateTask(t, *pick); err != nil {
		t.Abort()
		return nil, false
	}
	if err := t.Commit(); err != nil {
		return nil, false
	}
	return pick, true
}

// runTask drives one claimed task through running to its terminal
// transition for this cycle. Every state change is its own committed
// transaction, so a crash between any two leaves a lease the reclaim
// sweep can recover.
func (s *Scheduler) runTask(ctx context.Context, d *catalog.TaskDesc) {
	now := s.cfg.Clock.Now().UnixNano()
	d.State = catalog.TaskRunning
	d.LeaseExpiry = now + int64(s.cfg.Lease)
	if !s.updateTask(*d) {
		return
	}

	start := s.cfg.Clock.Now()
	err := s.cfg.Exec.ExecuteTask(ctx, d)
	elapsed := s.cfg.Clock.Since(start)
	metRunMS.Observe(elapsed.Milliseconds())
	now = s.cfg.Clock.Now().UnixNano()

	if err == nil {
		metRuns.Inc()
		if IsAuto(d.Name) {
			s.deleteTask(d.Name)
			return
		}
		d.Owner = ""
		d.LeaseExpiry = 0
		d.Retries = 0
		d.LastError = ""
		d.LastRun = now
		if d.Interval > 0 {
			d.State = catalog.TaskQueued
			d.NextRun = now + int64(d.Interval)
		} else {
			d.State = catalog.TaskDone
			d.NextRun = 0
		}
		s.updateTask(*d)
		return
	}

	metFailures.Inc()
	if ctx.Err() != nil {
		// Shutdown mid-task: leave the claim; the lease reclaim after
		// restart or failover requeues it.
		return
	}
	d.LastError = err.Error()
	d.Owner = ""
	d.LeaseExpiry = 0
	if int(d.Retries)+1 < s.cfg.Retry.MaxAttempts {
		d.Retries++
		d.State = catalog.TaskQueued
		d.NextRun = now + int64(s.cfg.Retry.Backoff(int(d.Retries)))
		metRetries.Inc()
		s.updateTask(*d)
		return
	}
	// Retries exhausted for this cycle.
	if IsAuto(d.Name) {
		// Drop the auto task; the sweep re-enqueues when thresholds still
		// hold, paced by the tick — a natural outer backoff.
		s.deleteTask(d.Name)
		return
	}
	d.Retries = 0
	d.LastRun = now
	if d.Interval > 0 {
		d.State = catalog.TaskQueued
		d.NextRun = now + int64(d.Interval)
	} else {
		d.State = catalog.TaskDone
		d.NextRun = 0
	}
	s.updateTask(*d)
}

// updateTask commits one task-row replacement; false means the update
// lost (task dropped or updated concurrently — catalog.ErrConcurrentUpdate
// — or the WAL rejected the commit) and the cycle should stop touching
// it.
func (s *Scheduler) updateTask(d catalog.TaskDesc) bool {
	cat, t := s.begin()
	if err := cat.UpdateTask(t, d); err != nil {
		t.Abort()
		return false
	}
	return t.Commit() == nil
}

// deleteTask removes a finished auto task.
func (s *Scheduler) deleteTask(name string) {
	cat, t := s.begin()
	if err := cat.DropTask(t, name); err != nil {
		t.Abort()
		return
	}
	//hawqcheck:ignore errdrop — a failed commit leaves the row for the next cycle's reclaim
	t.Commit()
}

// String describes the scheduler for logs.
func (s *Scheduler) String() string {
	return fmt.Sprintf("task.Scheduler(owner=%s tick=%s lease=%s)", s.cfg.Owner, s.cfg.Tick, s.cfg.Lease)
}
