// Package engine is HAWQ's public embedded API: the session layer that
// parses SQL, drives the transaction machinery and locking (§5), plans
// statements (§3), dispatches them across the cluster (§2.4), and
// returns results. cmd/hawq wraps it in an interactive shell, and
// internal/client exposes it over a libpq-style wire protocol.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hawq/internal/clock"
	"hawq/internal/cluster"
	"hawq/internal/obs"
	"hawq/internal/resource"
	"hawq/internal/session"
	"hawq/internal/sqlparser"
	"hawq/internal/task"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// DefaultPlanCacheSize is the boot value of the plan_cache_size setting.
const DefaultPlanCacheSize = 256

// ErrStatementTimeout is the cancellation cause when a statement
// exceeds the session's statement_timeout.
var ErrStatementTimeout = errors.New("engine: canceling statement due to statement timeout")

// ErrQueryCanceled is the cancellation cause when the client cancels
// the in-flight statement (Session.Cancel or the wire-protocol cancel
// message).
var ErrQueryCanceled = errors.New("engine: canceling statement due to user request")

// Config re-exports the cluster configuration.
type Config = cluster.Config

// PlannerFlags toggle optimizer features, for the ablation benchmarks
// (§3's direct dispatch, §2.3's partition elimination and colocation).
type PlannerFlags struct {
	DisableDirectDispatch bool
	DisablePartitionElim  bool
	DisableColocation     bool
}

// Engine is an embedded HAWQ instance.
type Engine struct {
	cl *cluster.Cluster
	// res is the workload manager's runtime queue registry, mirroring
	// the hawq_resqueue catalog table.
	res *resource.Manager
	// slow is the engine-wide slow-query log: sessions with
	// slow_query_log_threshold set record statements that ran at least
	// that long, together with their EXPLAIN ANALYZE summary.
	slow *obs.SlowLog
	// sched is the background maintenance daemon (nil when disabled):
	// AO compaction and user-defined periodic tasks.
	sched *task.Scheduler
	// planCache is the engine-wide compiled-plan cache (§2.4's
	// parse-once / dispatch-many path); sized by plan_cache_size.
	planCache *session.PlanCache
	// flags holds the planner ablation flags behind an atomic pointer:
	// hundreds of concurrent sessions read them per statement, so a
	// mutex here was a measurable contention wall.
	flags atomic.Pointer[PlannerFlags]
}

// SlowLog exposes the engine-wide slow-query log (tests and
// monitoring; SHOW slow_queries serves the same data over SQL).
func (e *Engine) SlowLog() *obs.SlowLog { return e.slow }

// SetFlags replaces the planner ablation flags.
func (e *Engine) SetFlags(f PlannerFlags) {
	e.flags.Store(&f)
}

// Flags returns the current planner ablation flags.
func (e *Engine) Flags() PlannerFlags {
	return *e.flags.Load()
}

// PlanCache exposes the engine-wide plan cache (tests and monitoring;
// SHOW plan_cache serves the same data over SQL).
func (e *Engine) PlanCache() *session.PlanCache { return e.planCache }

// New boots an engine.
func New(cfg Config) (*Engine, error) {
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cl:        cl,
		res:       resource.NewManager(cl.Clock()),
		slow:      obs.NewSlowLog(0),
		planCache: session.NewPlanCache(DefaultPlanCacheSize),
	}
	e.flags.Store(&PlannerFlags{})
	// Mirror any catalog-persisted resource queues into the runtime
	// manager (a catalog restored from WAL replay arrives with queues
	// already defined).
	boot := cl.TxMgr.Begin(tx.ReadCommitted)
	for _, q := range cl.Cat().ListResourceQueues(boot.Snapshot()) {
		// A name collision here means a corrupt catalog; first row wins.
		//hawqcheck:ignore errdrop
		e.res.Create(q.Name, int(q.ActiveStatements), q.MemLimit)
	}
	boot.Abort()
	if !cfg.DisableTasks {
		e.startScheduler(cfg)
	}
	// On standby promotion, drop every cached plan (belt and braces: the
	// promoted catalog is rebuilt from WAL replay, and the transaction
	// manager is shared so the catalog version stays monotonic, but a
	// fresh epoch should never serve pre-failover plans) and resume a
	// paused maintenance scheduler.
	e.cl.SetPromoteHook(func() {
		e.planCache.Flush()
		if e.sched != nil {
			e.sched.Resume()
		}
	})
	return e, nil
}

// ResourceQueues reports live stats for every registered resource
// queue (tests and monitoring; SHOW resource_queues serves the same
// data over SQL).
func (e *Engine) ResourceQueues() []resource.QueueStats { return e.res.List() }

// Cluster exposes the underlying runtime (fault injection, PXF binding,
// benchmarks).
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Close shuts the engine down: the maintenance daemon first (so no
// task transaction races teardown), then the cluster.
func (e *Engine) Close() error {
	if e.sched != nil {
		e.sched.Stop()
	}
	return e.cl.Close()
}

// Result is the outcome of one statement.
type Result struct {
	// Schema and Rows are set for row-returning statements.
	Schema *types.Schema
	Rows   []types.Row
	// Affected is the row count for DML.
	Affected int64
	// Tag is the command tag ("SELECT 4", "CREATE TABLE", ...).
	Tag string
}

// Session is one client session, owning at most one open transaction.
// Sessions are not safe for concurrent use (open one per goroutine),
// with one deliberate exception: Cancel may be called from any
// goroutine to abort the in-flight statement.
type Session struct {
	eng *Engine
	// level is the session's default isolation level.
	level tx.IsolationLevel
	// cur is the open explicit transaction, nil in autocommit mode.
	cur *tx.Tx
	// timeout is the session's statement_timeout (0 = disabled).
	timeout time.Duration
	// queue is the session's resource_queue setting ("" = unmanaged).
	queue string
	// workMem is the session's work_mem in bytes (0 = no per-operator
	// budget, so operators never spill on memory pressure).
	workMem int64
	// slowThresh is the session's slow_query_log_threshold (0 =
	// disabled). When set, SELECT dispatches collect per-operator stats
	// and statements running at least this long are recorded in the
	// engine's slow-query log with their EXPLAIN ANALYZE summary.
	slowThresh time.Duration
	// lastStats holds the EXPLAIN ANALYZE summary of the most recent
	// dispatch of the current statement, when the session collected
	// stats for the slow-query log. Cleared at statement start.
	lastStats string
	// prep holds the session's prepared statements (lazily allocated on
	// the first PREPARE).
	prep *session.Registry
	// noPlanCache opts this session out of the engine plan cache
	// (SET plan_cache = off), for the cache ablation benchmarks.
	noPlanCache bool
	// curParams holds the current statement's parameter values while an
	// EXECUTE is in flight (nil otherwise). Planners built for the
	// statement — including nested subquery planners — resolve $n
	// placeholders against it.
	curParams []types.Datum
	// slot is the resource queue whose slot the current statement holds
	// (nil before its first dispatch and between statements).
	slot *resource.Queue

	// qmu guards qcancel, the cancel function of the statement
	// currently executing (nil between statements).
	qmu     sync.Mutex
	qcancel context.CancelCauseFunc
}

// NewSession opens a session.
func (e *Engine) NewSession() *Session {
	return &Session{eng: e, level: tx.ReadCommitted}
}

// Execute parses and runs a semicolon-separated SQL string, returning one
// result per statement. On error, prior statements' effects stand
// according to their own transactions (autocommit) or the session
// transaction is aborted.
func (s *Session) Execute(sql string) ([]*Result, error) {
	return s.execute(context.Background(), sql)
}

// execute runs sql's statements in turn, each under parent: a client's
// under nothing but its own cancel scope, a maintenance task's under the
// scheduler's context, so stopping the engine cancels it.
func (s *Session) execute(parent context.Context, sql string) ([]*Result, error) {
	stmts, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, stmt := range stmts {
		res, err := s.executeStmt(parent, stmt)
		if err != nil {
			// The lifecycle has aborted the open block already if the
			// statement was one it runs; this is for the session's own
			// (BEGIN, SET, PREPARE, ...).
			s.abortBlock()
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Query runs a single statement and returns its result.
func (s *Session) Query(sql string) (*Result, error) {
	res, err := s.Execute(sql)
	if err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return &Result{Tag: "EMPTY"}, nil
	}
	return res[len(res)-1], nil
}

func (s *Session) releaseTx(t *tx.Tx) {
	s.eng.cl.Locks.ReleaseAll(t.XID())
}

// abortBlock aborts the session's open transaction block, if any: what
// ROLLBACK and a failed statement do to it.
func (s *Session) abortBlock() {
	if s.cur != nil {
		s.cur.Abort()
		s.releaseTx(s.cur)
		s.cur = nil
	}
}

// Cancel aborts the statement the session is currently executing, if
// any: its query context is canceled with ErrQueryCanceled, which
// tears down every slice of the dispatched plan. Safe to call from any
// goroutine; a no-op when the session is idle.
func (s *Session) Cancel() {
	s.qmu.Lock()
	cancel := s.qcancel
	s.qmu.Unlock()
	if cancel != nil {
		cancel(ErrQueryCanceled)
	}
}

// beginStatement arms the per-statement cancellation scope under
// parent: a context canceled by Session.Cancel and, when
// statement_timeout is set, by the engine clock. The returned release
// must be called when the statement finishes; it also gives back the
// resource-queue slot the statement's first dispatch took.
func (s *Session) beginStatement(parent context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(parent)
	var tcancel context.CancelFunc
	if s.timeout > 0 {
		ctx, tcancel = clock.ContextWithTimeout(ctx, s.eng.cl.Clock(), s.timeout, ErrStatementTimeout)
	}
	s.qmu.Lock()
	s.qcancel = cancel
	s.qmu.Unlock()
	return ctx, func() {
		s.qmu.Lock()
		s.qcancel = nil
		s.qmu.Unlock()
		if s.slot != nil {
			s.slot.Release()
			s.slot = nil
		}
		if tcancel != nil {
			tcancel()
		}
		cancel(context.Canceled)
	}
}

func (s *Session) executeStmt(parent context.Context, stmt sqlparser.Statement) (*Result, error) {
	switch v := stmt.(type) {
	case *sqlparser.BeginStmt:
		if s.cur != nil {
			return nil, fmt.Errorf("engine: a transaction is already in progress")
		}
		level := s.level
		if v.Isolation != "" {
			l, err := tx.ParseIsolationLevel(v.Isolation)
			if err != nil {
				return nil, err
			}
			level = l
		}
		s.cur = s.eng.cl.TxMgr.Begin(level)
		return &Result{Tag: "BEGIN"}, nil
	case *sqlparser.CommitStmt:
		if s.cur == nil {
			return &Result{Tag: "COMMIT"}, nil
		}
		err := s.cur.Commit()
		s.releaseTx(s.cur)
		s.cur = nil
		if err != nil {
			return nil, err
		}
		return &Result{Tag: "COMMIT"}, nil
	case *sqlparser.RollbackStmt:
		s.abortBlock()
		return &Result{Tag: "ROLLBACK"}, nil
	case *sqlparser.SetStmt:
		st, ok := settings[strings.ToLower(v.Name)]
		if !ok {
			return nil, fmt.Errorf("engine: unrecognized configuration parameter %q", v.Name)
		}
		if err := st.set(s, v.Value); err != nil {
			return nil, err
		}
		return &Result{Tag: "SET"}, nil
	case *sqlparser.PrepareStmt:
		return s.runPrepare(v)
	case *sqlparser.DeallocateStmt:
		return s.runDeallocate(v)
	case *sqlparser.ExecuteStmt:
		return s.runTransactional(parent, v, func(ctx context.Context, t *tx.Tx) (*Result, error) {
			args, err := executeArgs(v)
			if err != nil {
				return nil, err
			}
			return s.runPrepared(ctx, t, v.Name, args)
		})
	}
	return s.runTransactional(parent, stmt, func(ctx context.Context, t *tx.Tx) (*Result, error) {
		return s.runInTx(ctx, t, stmt)
	})
}

// statementText is how a statement that has no SQL of its own (COPY, a
// compaction) shows in the slow-query log.
type statementText string

func (t statementText) String() string { return string(t) }

// runTransactional is the engine's one statement lifecycle: SQL text,
// a prepared execution, COPY and the maintenance tasks all enter
// through it, and work is the statement itself. It runs work in the
// session's open transaction block, or in an autocommit transaction it
// commits when work succeeds. It arms the statement's cancel scope
// under parent, holds the resource-queue slot the statement's first
// dispatch takes until the statement ends (Session.dispatch), counts
// the statement in the engine counters and, under display, in the
// slow-query log, and aborts the open block when work fails, whichever
// way the statement came in.
func (s *Session) runTransactional(parent context.Context, display fmt.Stringer, work func(context.Context, *tx.Tx) (*Result, error)) (*Result, error) {
	t, auto := s.cur, s.cur == nil
	if auto {
		t = s.eng.cl.TxMgr.Begin(s.level)
	}
	clk := s.eng.cl.Clock()
	start := clk.Now()
	s.lastStats = ""
	engineQueries.Inc()
	ctx, done := s.beginStatement(parent)
	res, err := work(ctx, t)
	done()
	s.curParams = nil
	if err != nil {
		engineErrors.Inc()
		switch {
		case errors.Is(err, ErrQueryCanceled):
			engineCancels.Inc()
		case errors.Is(err, ErrStatementTimeout):
			engineTimeouts.Inc()
		}
	}
	if d := clk.Since(start); s.slowThresh > 0 && d >= s.slowThresh {
		// With the EXPLAIN ANALYZE summary runSelectRows left, if the
		// statement dispatched a SELECT.
		s.eng.slow.Add(obs.SlowLogEntry{SQL: display.String(), Duration: d, Summary: s.lastStats})
	}
	switch {
	case auto && err == nil:
		err = t.Commit()
		s.releaseTx(t)
	case auto:
		t.Abort()
		s.releaseTx(t)
	case err != nil:
		s.abortBlock()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Session) runInTx(ctx context.Context, t *tx.Tx, stmt sqlparser.Statement) (*Result, error) {
	switch v := stmt.(type) {
	case *sqlparser.SelectStmt:
		return s.runSelect(ctx, t, v)
	case *sqlparser.InsertStmt:
		return s.runInsert(ctx, t, v)
	case *sqlparser.CreateTableStmt:
		return s.runCreateTable(t, v)
	case *sqlparser.CreateExternalTableStmt:
		return s.runCreateExternal(t, v)
	case *sqlparser.DropTableStmt:
		return s.runDropTable(t, v)
	case *sqlparser.CreateTaskStmt:
		return s.runCreateTask(t, v)
	case *sqlparser.DropTaskStmt:
		return s.runDropTask(t, v)
	case *sqlparser.CreateResourceQueueStmt:
		return s.runCreateResourceQueue(t, v)
	case *sqlparser.DropResourceQueueStmt:
		return s.runDropResourceQueue(t, v)
	case *sqlparser.TruncateStmt:
		return s.runTruncate(t, v)
	case *sqlparser.AnalyzeStmt:
		return s.runAnalyze(t, v)
	case *sqlparser.ExplainStmt:
		return s.runExplain(ctx, t, v)
	case *sqlparser.ShowStmt:
		return s.runShow(t, v)
	case *sqlparser.DeleteStmt, *sqlparser.UpdateStmt:
		return s.runCatalogDML(t, stmt)
	case *sqlparser.VacuumStmt:
		removed := s.eng.cl.Cat().VacuumAll(s.eng.cl.TxMgr.Horizon())
		return &Result{Affected: int64(removed), Tag: fmt.Sprintf("VACUUM %d", removed)}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// isSystemTable reports whether a name refers to a catalog table, which
// is served by CaQL rather than the parallel executor (§2.2).
func isSystemTable(name string) bool {
	return strings.HasPrefix(strings.ToLower(name), "hawq_")
}

// runCatalogDML routes DELETE/UPDATE on system tables through CaQL; user
// tables are append-only (§5), so row-level DML on them is rejected.
func (s *Session) runCatalogDML(t *tx.Tx, stmt sqlparser.Statement) (*Result, error) {
	var table string
	switch v := stmt.(type) {
	case *sqlparser.DeleteStmt:
		table = v.Table
	case *sqlparser.UpdateStmt:
		table = v.Table
	}
	if !isSystemTable(table) {
		return nil, fmt.Errorf("engine: %s: user tables are append-only; use INSERT and TRUNCATE", table)
	}
	res, err := s.eng.cl.Cat().CaQL(t, stmt.String())
	if err != nil {
		return nil, err
	}
	return &Result{Affected: int64(res.Affected), Tag: fmt.Sprintf("CAQL %d", res.Affected)}, nil
}
