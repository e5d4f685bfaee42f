package engine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/sqlparser"
	"hawq/internal/task"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// ownerSeq numbers scheduler owners so concurrent engines in one
// process (tests, the chaos harness) lease tasks under distinct names.
var ownerSeq atomic.Int64

// startScheduler boots the background maintenance daemon against this
// engine's master. The scheduler outlives catalog promotion: its Cat
// and TxMgr hooks re-resolve the live master state every pass, and the
// cluster's promote hook resumes a paused scheduler when a standby
// catalog takes over.
func (e *Engine) startScheduler(cfg Config) {
	e.sched = task.New(task.Config{
		Clock:        e.cl.Clock(),
		Cat:          e.cl.Cat,
		TxMgr:        func() *tx.Manager { return e.cl.TxMgr },
		Exec:         taskExecutor{eng: e},
		Owner:        fmt.Sprintf("qd-%d", ownerSeq.Add(1)),
		Lease:        cfg.TaskLease,
		DisableSweep: !cfg.TaskSweep,
	})
	e.sched.Start()
}

// TaskScheduler exposes the maintenance daemon (tests, chaos harness);
// nil when the engine was booted with DisableTasks.
func (e *Engine) TaskScheduler() *task.Scheduler { return e.sched }

// taskExecutor adapts the engine to task.Executor: every task kind runs
// in a fresh session through the statement lifecycle, under the
// scheduler's context, so maintenance work obeys admission control,
// locking, and MVCC like any client statement, and stopping the
// scheduler cancels it.
type taskExecutor struct{ eng *Engine }

func (x taskExecutor) ExecuteTask(ctx context.Context, d *catalog.TaskDesc) error {
	var err error
	switch d.Kind {
	case catalog.TaskKindStatement:
		_, err = x.eng.NewSession().execute(ctx, d.Target)
	case catalog.TaskKindCompact:
		err = x.eng.CompactTable(ctx, d.Target)
	default:
		err = fmt.Errorf("engine: unknown task kind %q", d.Kind)
	}
	return err
}

// runCreateTask registers a user-defined periodic statement (CREATE
// TASK name SCHEDULE EVERY interval AS stmt). The statement is stored
// as SQL text and re-parsed at every firing, so it sees the catalog as
// of execution time.
func (s *Session) runCreateTask(t *tx.Tx, stmt *sqlparser.CreateTaskStmt) (*Result, error) {
	name := strings.ToLower(stmt.Name)
	if task.IsAuto(name) {
		return nil, fmt.Errorf("engine: task names starting with %q are reserved for the scheduler", task.AutoPrefix)
	}
	now := s.eng.cl.Clock().Now().UnixNano()
	err := s.eng.cl.Cat().CreateTask(t, catalog.TaskDesc{
		Name:     name,
		Kind:     catalog.TaskKindStatement,
		Target:   stmt.Stmt.String(),
		Interval: stmt.Every,
		NextRun:  now + int64(stmt.Every),
	})
	if err != nil {
		return nil, err
	}
	return &Result{Tag: "CREATE TASK"}, nil
}

func (s *Session) runDropTask(t *tx.Tx, stmt *sqlparser.DropTaskStmt) (*Result, error) {
	if err := s.eng.cl.Cat().DropTask(t, stmt.Name); err != nil {
		if stmt.IfExists {
			return &Result{Tag: "DROP TASK"}, nil
		}
		return nil, err
	}
	return &Result{Tag: "DROP TASK"}, nil
}

// runShowTasks serves SHOW tasks from the hawq_task catalog table.
func (s *Session) runShowTasks(t *tx.Tx) (*Result, error) {
	schema := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "kind", Kind: types.KindString},
		types.Column{Name: "target", Kind: types.KindString},
		types.Column{Name: "interval", Kind: types.KindString},
		types.Column{Name: "state", Kind: types.KindString},
		types.Column{Name: "owner", Kind: types.KindString},
		types.Column{Name: "retries", Kind: types.KindInt64},
		types.Column{Name: "last_run", Kind: types.KindString},
		types.Column{Name: "next_run", Kind: types.KindString},
		types.Column{Name: "last_error", Kind: types.KindString},
	)
	var rows []types.Row
	for _, d := range s.eng.cl.Cat().ListTasks(t.Snapshot()) {
		interval := ""
		if d.Interval > 0 {
			interval = d.Interval.String()
		}
		rows = append(rows, types.Row{
			types.NewString(d.Name),
			types.NewString(d.Kind),
			types.NewString(d.Target),
			types.NewString(interval),
			types.NewString(d.State),
			types.NewString(d.Owner),
			types.NewInt64(d.Retries),
			types.NewString(taskTime(d.LastRun)),
			types.NewString(taskTime(d.NextRun)),
			types.NewString(d.LastError),
		})
	}
	return &Result{Schema: schema, Rows: rows, Tag: "SHOW"}, nil
}

// taskTime renders a unix-nano task timestamp ("" for never).
func taskTime(ns int64) string {
	if ns == 0 {
		return ""
	}
	return time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
}
