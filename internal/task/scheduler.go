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
// table's segment files (hawq_aoseg) once, enqueuing auto-ANALYZE when
// their committed row count has drifted from the one the last ANALYZE
// stored past a threshold and AO small-file compaction when a table
// fragments into undersized segfiles.
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
	metAutoAnl  = obs.GetCounter("task.analyze_auto")
	metAutoCmp  = obs.GetCounter("task.compact_auto")
	metRunMS    = obs.GetHistogram("task.run_ms", []int64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000})
)

// AutoPrefix marks scheduler-originated tasks: the sweep creates them
// one-shot and the scheduler deletes them once they succeed (or exhaust
// their retries), so the sweep can re-enqueue when thresholds cross
// again.
const AutoPrefix = "auto_"

// analyzeRatio triggers auto-ANALYZE when churn reaches this share of
// the row count the last ANALYZE stored.
const analyzeRatio = 0.2

// IsAuto reports whether a task was enqueued by the sweep rather than
// CREATE TASK.
func IsAuto(name string) bool { return strings.HasPrefix(name, AutoPrefix) }

// Executor runs one claimed task to effect. The engine implements it:
// analyze and statement tasks run through a normal session (admission,
// work_mem, statement timeout), compaction through the storage swap.
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

	// AnalyzeMinRows is the absolute floor of churned rows below which
	// no ANALYZE is enqueued (default 50), keeping tiny tables from
	// churning stats on every insert.
	AnalyzeMinRows int64
	// CompactSmallBytes classifies a segfile as undersized (default
	// 64KB); CompactMinFiles is how many undersized files one segment
	// must accumulate before compaction is enqueued (default 3).
	CompactSmallBytes int64
	CompactMinFiles   int
	// DisableSweep turns off scheduler-originated work (auto-ANALYZE and
	// auto-compaction), leaving only user-defined tasks.
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
	if c.AnalyzeMinRows <= 0 {
		c.AnalyzeMinRows = 50
	}
	if c.CompactSmallBytes <= 0 {
		c.CompactSmallBytes = 64 << 10
	}
	if c.CompactMinFiles <= 0 {
		c.CompactMinFiles = 3
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

// sweep originates maintenance work from catalog state: auto-ANALYZE for
// churned tables, compaction for fragmented ones. Each candidate gets a
// one-shot auto task unless one already exists.
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
		files := cat.AllSegFiles(snap, desc.OID)
		if name := s.analyzeCandidate(cat, snap, desc, files); name != "" && !existing[name] {
			if err := cat.CreateTask(t, catalog.TaskDesc{
				Name: name, Kind: catalog.TaskKindAnalyze, Target: desc.Name, NextRun: now,
			}); err == nil {
				existing[name] = true
				enqueued++
				metAutoAnl.Inc()
			}
		}
		if name := s.compactCandidate(desc, files); name != "" && !existing[name] {
			if err := cat.CreateTask(t, catalog.TaskDesc{
				Name: name, Kind: catalog.TaskKindCompact, Target: desc.Name, NextRun: now,
			}); err == nil {
				existing[name] = true
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

// analyzeCandidate decides whether a table's churn since its last
// ANALYZE warrants a refresh. Churn is how far the committed row count
// of its segment files has moved from the count that ANALYZE stored;
// "never analyzed" (or truncated since) counts every row as churn, so
// freshly loaded tables get first statistics automatically.
func (s *Scheduler) analyzeCandidate(cat *catalog.Catalog, snap tx.Snapshot, desc *catalog.TableDesc, files []catalog.SegFile) string {
	var rows int64
	for _, sf := range files {
		rows += sf.Tuples
	}
	rs, analyzed := cat.RelStatsFor(snap, desc.OID)
	churn := rows - rs.Rows
	if churn < 0 {
		churn = -churn
	}
	if churn < s.cfg.AnalyzeMinRows {
		return ""
	}
	if analyzed && float64(churn)/float64(max(rs.Rows, 1)) < analyzeRatio {
		return ""
	}
	return AutoPrefix + "analyze_" + strings.ToLower(desc.Name)
}

// compactCandidate reports whether any segment of the table accumulated
// enough undersized files to be worth merging.
func (s *Scheduler) compactCandidate(desc *catalog.TableDesc, files []catalog.SegFile) string {
	small := map[int]int{}
	for _, sf := range files {
		if sf.Tuples > 0 && sf.LogicalLen > 0 && sf.LogicalLen < s.cfg.CompactSmallBytes {
			small[sf.SegmentID]++
			if small[sf.SegmentID] >= s.cfg.CompactMinFiles {
				return AutoPrefix + "compact_" + strings.ToLower(desc.Name)
			}
		}
	}
	return ""
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
