package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"hawq/internal/cluster"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/planner"
	"hawq/internal/resource"
	"hawq/internal/retry"
	"hawq/internal/session"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// newPlanner builds a planner bound to a statement snapshot, with scalar
// subquery evaluation wired to a nested dispatch. A SELECT is planned
// generically on every path; only DML sets Params instead.
func (s *Session) newPlanner(ctx context.Context, t *tx.Tx) *planner.Planner {
	flags := s.eng.Flags()
	p := &planner.Planner{
		Cat:                   s.eng.cl.Cat(),
		Snap:                  t.Snapshot(),
		NumSegments:           s.eng.cl.NumSegments(),
		DisableDirectDispatch: flags.DisableDirectDispatch,
		DisablePartitionElim:  flags.DisablePartitionElim,
		DisableColocation:     flags.DisableColocation,
		GenericParams:         true,
	}
	p.SubqueryEval = func(sub *sqlparser.SelectStmt) (types.Datum, error) {
		rows, _, err := s.runSelectRows(ctx, t, sub, false)
		if err != nil {
			return types.Null, err
		}
		if len(rows) > 1 {
			return types.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(rows))
		}
		if len(rows) == 0 || len(rows[0]) == 0 {
			return types.Null, nil
		}
		if len(rows[0]) != 1 {
			return types.Null, fmt.Errorf("engine: scalar subquery must return one column")
		}
		return rows[0][0], nil
	}
	return p
}

// lockTables takes the given mode on every table sel reads.
func (s *Session) lockTables(t *tx.Tx, sel *sqlparser.SelectStmt, mode tx.LockMode) error {
	names := map[string]bool{}
	sqlparser.Tables(sel, func(name string) { names[name] = true })
	for name := range names {
		if isSystemTable(name) {
			continue
		}
		if err := s.eng.cl.Locks.Acquire(t.XID(), name, mode); err != nil {
			return err
		}
	}
	return nil
}

// runSelect executes a SELECT and returns its result.
func (s *Session) runSelect(ctx context.Context, t *tx.Tx, stmt *sqlparser.SelectStmt) (*Result, error) {
	// System-table queries go through CaQL on the master (§2.2).
	if len(stmt.From) == 1 {
		if tn, ok := stmt.From[0].(*sqlparser.TableName); ok && isSystemTable(tn.Name) {
			res, err := s.eng.cl.Cat().CaQL(t, stmt.String())
			if err != nil {
				return nil, err
			}
			return &Result{Schema: res.Schema, Rows: res.Rows, Tag: fmt.Sprintf("SELECT %d", len(res.Rows))}, nil
		}
	}
	rows, schema, err := s.runSelectRows(ctx, t, stmt, false)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Rows: rows, Tag: fmt.Sprintf("SELECT %d", len(rows))}, nil
}

// runSelectRows plans and dispatches a SELECT, restarting it on the
// cluster's bounded retry policy after segment failures: in-flight
// queries fail, the fault detector marks dead segments down, and the
// restarted query fails over (§2.6 — "most of the time, heavy
// materialization based query recovery is slower than simple query
// restart"). Errors the detector cannot attribute to a fault are
// permanent; cancellation stops the loop immediately. With stats, or
// with the session's slow-query log armed, the dispatch collects
// per-operator statistics and leaves its EXPLAIN ANALYZE summary in
// s.lastStats.
func (s *Session) runSelectRows(ctx context.Context, t *tx.Tx, stmt *sqlparser.SelectStmt, stats bool) ([]types.Row, *types.Schema, error) {
	if err := s.lockTables(t, stmt, tx.AccessShare); err != nil {
		return nil, nil, err
	}
	var rows []types.Row
	var schema *types.Schema
	err := s.eng.cl.RestartPolicy().Do(ctx, func(n int) error {
		if n > 1 {
			// Re-probe blacklisted segments whose backoff expired so
			// this restart can use them again.
			s.eng.cl.Reprobe()
		}
		// Only first attempts consult the plan cache: a restart follows a
		// segment-state change the cached plan predates.
		pl, err := s.planCached(ctx, t, stmt, n == 1)
		if err != nil {
			return retry.Permanent(err)
		}
		pl.CollectStats = stats || s.slowThresh > 0
		clk := s.eng.cl.Clock()
		start := clk.Now()
		res, err := s.dispatch(ctx, pl)
		if err != nil {
			return s.classifyDispatchErr(err)
		}
		if pl.CollectStats {
			s.lastStats = pl.ExplainAnalyze(res.Stats, len(res.Rows), clk.Since(start))
		}
		rows, schema = res.Rows, pl.Schema
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, schema, nil
}

// planCached returns a dispatch-ready plan for a SELECT, planned
// generically (newPlanner) on every path, consulting the engine-wide
// plan cache on a first attempt (a restart follows a segment-state change
// a cached plan predates) whose transaction has no uncommitted catalog
// writes of its own (the key's catalog version covers committed state).
//
// A cached entry is the plan as planned — keyed by canonical SQL +
// cluster shape + planner flags, validated against the snapshot's
// catalog version — and is never written: every execution takes a header
// copy (plan.Clone shares every node) and binds its arguments into that.
// A plan that holds a value of one execution (planner.OneShot) is never
// stored.
func (s *Session) planCached(ctx context.Context, t *tx.Tx, stmt *sqlparser.SelectStmt, firstAttempt bool) (*plan.Plan, error) {
	snap := t.Snapshot()
	cached := firstAttempt && !s.eng.cl.TxMgr.IsCatalogDirty(t.XID())
	var key string
	var shared *plan.Plan
	if cached {
		flags := s.eng.Flags()
		key = session.Fingerprint(stmt.String(), s.eng.cl.NumSegments(),
			flags.DisableDirectDispatch, flags.DisablePartitionElim,
			flags.DisableColocation)
		if v, ok := s.eng.planCache.Get(key, snap.CatVer); ok {
			shared = v.(*plan.Plan)
		}
	}
	if shared == nil {
		p := s.newPlanner(ctx, t)
		p.Snap = snap // the lookup's version
		var err error
		if shared, err = p.PlanSelect(stmt); err != nil {
			return nil, err
		}
		if cached && !p.OneShot() {
			s.eng.planCache.Put(key, snap.CatVer, shared)
		}
	}
	pl, err := shared.Clone()
	if err == nil {
		err = pl.BindParams(s.curParams)
	}
	return pl, err
}

// classifyDispatchErr decides whether a failed dispatch is worth
// restarting: it is when the fault detector attributes it to a segment
// failure (newly marked down, or still inside its blacklist window).
// Everything else — plan errors, constraint violations, cancellation —
// is permanent.
func (s *Session) classifyDispatchErr(err error) error {
	if errors.Is(err, ErrStatementTimeout) || errors.Is(err, ErrQueryCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return retry.Permanent(err)
	}
	if marked := s.eng.cl.FaultCheck(); len(marked) > 0 {
		return err
	}
	if errors.Is(err, cluster.ErrSegmentBlacklisted) {
		return err
	}
	return retry.Permanent(err)
}

// runExplain plans the inner statement and renders the sliced plan.
// EXPLAIN ANALYZE instead runs it as a SELECT, with per-operator
// instrumentation, and renders the plan annotated with the merged
// per-slice runtime statistics the gang reported.
func (s *Session) runExplain(ctx context.Context, t *tx.Tx, stmt *sqlparser.ExplainStmt) (*Result, error) {
	sel, ok := stmt.Stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN supports SELECT only")
	}
	var text string
	if stmt.Analyze {
		// Run the statement as a SELECT runs, with stats on: the
		// summary it leaves for the slow-query log is the answer.
		if _, _, err := s.runSelectRows(ctx, t, sel, true); err != nil {
			return nil, err
		}
		text = s.lastStats
	} else {
		pl, err := s.newPlanner(ctx, t).PlanSelect(sel)
		if err != nil {
			return nil, err
		}
		// Stamp the session's memory budgets so the per-slice Memory
		// line reflects what a real dispatch would grant.
		s.applyResourceLimits(pl)
		text = pl.Explain()
	}
	schema := types.NewSchema(types.Column{Name: "QUERY PLAN", Kind: types.KindString})
	var rows []types.Row
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rows = append(rows, types.Row{types.NewString(line)})
	}
	return &Result{Schema: schema, Rows: rows, Tag: "EXPLAIN"}, nil
}

// runShow serves SHOW segments / SHOW tables / SHOW metrics and the
// session settings.
func (s *Session) runShow(t *tx.Tx, stmt *sqlparser.ShowStmt) (*Result, error) {
	name := strings.ToLower(stmt.Name)
	if st, ok := settings[name]; ok && st.show != nil {
		d := st.show(s)
		schema := types.NewSchema(types.Column{Name: name, Kind: d.K})
		return &Result{Schema: schema, Rows: []types.Row{{d}}, Tag: "SHOW"}, nil
	}
	switch name {
	case "metrics":
		snap := obs.Snapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
		schema := types.NewSchema(
			types.Column{Name: "name", Kind: types.KindString},
			types.Column{Name: "value", Kind: types.KindInt64},
		)
		rows := make([]types.Row, 0, len(names))
		for _, name := range names {
			rows = append(rows, types.Row{types.NewString(name), types.NewInt64(snap[name])})
		}
		return &Result{Schema: schema, Rows: rows, Tag: "SHOW"}, nil
	case "slow_queries":
		schema := types.NewSchema(
			types.Column{Name: "sql", Kind: types.KindString},
			types.Column{Name: "duration_ms", Kind: types.KindInt64},
			types.Column{Name: "summary", Kind: types.KindString},
		)
		var rows []types.Row
		for _, e := range s.eng.slow.Entries() {
			rows = append(rows, types.Row{
				types.NewString(e.SQL),
				types.NewInt64(e.Duration.Milliseconds()),
				types.NewString(e.Summary),
			})
		}
		return &Result{Schema: schema, Rows: rows, Tag: "SHOW"}, nil
	case "segments":
		schema := types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt32},
			types.Column{Name: "host", Kind: types.KindString},
			types.Column{Name: "status", Kind: types.KindString},
		)
		var rows []types.Row
		for _, seg := range s.eng.cl.Cat().Segments(t.Snapshot()) {
			rows = append(rows, types.Row{
				types.NewInt32(int32(seg.ID)), types.NewString(seg.Host), types.NewString(seg.Status),
			})
		}
		return &Result{Schema: schema, Rows: rows, Tag: "SHOW"}, nil
	case "tables":
		schema := types.NewSchema(
			types.Column{Name: "name", Kind: types.KindString},
			types.Column{Name: "distribution", Kind: types.KindString},
			types.Column{Name: "orientation", Kind: types.KindString},
		)
		var rows []types.Row
		for _, d := range s.eng.cl.Cat().ListTables(t.Snapshot()) {
			if d.IsPartitionChild() {
				continue
			}
			rows = append(rows, types.Row{
				types.NewString(d.Name), types.NewString(d.Dist.String()), types.NewString(d.Storage.Orientation),
			})
		}
		return &Result{Schema: schema, Rows: rows, Tag: "SHOW"}, nil
	case "plan_cache":
		st := s.eng.planCache.Stats()
		schema := types.NewSchema(
			types.Column{Name: "metric", Kind: types.KindString},
			types.Column{Name: "value", Kind: types.KindInt64},
		)
		rows := []types.Row{
			{types.NewString("size"), types.NewInt64(int64(st.Size))},
			{types.NewString("capacity"), types.NewInt64(int64(st.Capacity))},
			{types.NewString("hits"), types.NewInt64(st.Hits)},
			{types.NewString("misses"), types.NewInt64(st.Misses)},
			{types.NewString("invalidations"), types.NewInt64(st.Invalidations)},
			{types.NewString("evictions"), types.NewInt64(st.Evictions)},
			{types.NewString("stores"), types.NewInt64(st.Stores)},
		}
		return &Result{Schema: schema, Rows: rows, Tag: "SHOW"}, nil
	case "tasks":
		return s.runShowTasks(t)
	case "resource_queues":
		schema := types.NewSchema(
			types.Column{Name: "name", Kind: types.KindString},
			types.Column{Name: "active_statements", Kind: types.KindInt64},
			types.Column{Name: "memory_limit", Kind: types.KindString},
			types.Column{Name: "active", Kind: types.KindInt64},
			types.Column{Name: "queued", Kind: types.KindInt64},
			types.Column{Name: "admitted", Kind: types.KindInt64},
			types.Column{Name: "waits", Kind: types.KindInt64},
			types.Column{Name: "total_wait_ms", Kind: types.KindInt64},
		)
		var rows []types.Row
		for _, st := range s.eng.res.List() {
			rows = append(rows, types.Row{
				types.NewString(st.Name),
				types.NewInt64(int64(st.ActiveStatements)),
				types.NewString(resource.FormatBytes(st.MemoryLimit)),
				types.NewInt64(int64(st.Active)),
				types.NewInt64(int64(st.Queued)),
				types.NewInt64(st.Admitted),
				types.NewInt64(st.Waits),
				types.NewInt64(st.TotalWait.Milliseconds()),
			})
		}
		return &Result{Schema: schema, Rows: rows, Tag: "SHOW"}, nil
	default:
		return nil, fmt.Errorf("engine: unknown SHOW %q", stmt.Name)
	}
}
