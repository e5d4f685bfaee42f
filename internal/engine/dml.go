package engine

import (
	"context"
	"fmt"
	"strings"

	"hawq/internal/catalog"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// runInsert executes INSERT: lock, assign the transaction's swimming
// lane(s) (§5.4), plan with redistribution to the target's distribution,
// dispatch, and fold the piggybacked segment-file updates into the
// catalog as MVCC updates. The rows become visible at commit; an abort
// truncates the appended bytes away (§5.3).
func (s *Session) runInsert(ctx context.Context, t *tx.Tx, stmt *sqlparser.InsertStmt) (*Result, error) {
	cat := s.eng.cl.Cat()
	name := strings.ToLower(stmt.Table)
	if isSystemTable(name) {
		res, err := cat.CaQL(t, stmt.String())
		if err != nil {
			return nil, err
		}
		return &Result{Affected: int64(res.Affected), Tag: fmt.Sprintf("INSERT 0 %d", res.Affected)}, nil
	}
	desc, err := cat.LookupTable(t.Snapshot(), name)
	if err != nil {
		return nil, err
	}
	if desc.IsExternal() {
		return nil, fmt.Errorf("engine: cannot insert into external table %s", name)
	}
	if desc.IsPartitionChild() {
		return nil, fmt.Errorf("engine: insert into partition %s directly is not supported; use the parent", name)
	}
	if err := s.eng.cl.Locks.Acquire(t.XID(), name, tx.RowExclusive); err != nil {
		return nil, err
	}
	if stmt.Select != nil {
		if err := s.lockTables(t, stmt.Select, tx.AccessShare); err != nil {
			return nil, err
		}
	}

	targets, segno, err := s.insertTargets(t, desc)
	if err != nil {
		return nil, err
	}
	p := s.newPlanner(ctx, t)
	pl, err := p.PlanInsert(stmt, targets, segno)
	if err != nil {
		return nil, err
	}
	s.applyResourceLimits(pl)
	return s.dispatchDML(ctx, t, pl)
}

// insertTargets builds the insert target list with per-segment lane
// files (§5.4).
func (s *Session) insertTargets(t *tx.Tx, desc *catalog.TableDesc) ([]plan.InsertTarget, int, error) {
	cat := s.eng.cl.Cat()
	targets := []plan.InsertTarget{{Table: desc}}
	if desc.IsPartitionParent() {
		kids, err := cat.PartitionChildren(t.Snapshot(), desc.OID)
		if err != nil {
			return nil, 0, err
		}
		for _, kid := range kids {
			targets = append(targets, plan.InsertTarget{Table: kid})
		}
	}
	var segno int
	for i := range targets {
		if i == 0 && desc.IsPartitionParent() {
			// The parent itself holds no data.
			targets[i].Files = map[int]catalog.SegFile{}
			continue
		}
		n, files, err := s.eng.cl.AcquireLane(t, targets[i].Table)
		if err != nil {
			return nil, 0, err
		}
		segno = n
		targets[i].Files = files
	}
	return targets, segno, nil
}

// dispatchDML dispatches an INSERT/COPY plan and folds the piggybacked
// metadata changes into the catalog (§3.1, §5.4). DML is never
// restarted: a segment failure mid-INSERT aborts the transaction
// cleanly — the fault detector marks the segment down, and the
// transaction's OnAbort hooks truncate the partially-appended bytes
// away (§5.3) — so the statement fails with a clear abort error rather
// than a raw QE error.
func (s *Session) dispatchDML(ctx context.Context, t *tx.Tx, pl *plan.Plan) (*Result, error) {
	res, err := s.eng.cl.Dispatch(ctx, pl, nil)
	if err != nil {
		if marked := s.eng.cl.FaultCheck(); len(marked) > 0 {
			return nil, fmt.Errorf("engine: transaction aborted: segment failure during DML (segments %v marked down, appended data rolled back): %w", marked, err)
		}
		return nil, err
	}
	var affected int64
	for _, row := range res.Rows {
		affected += row[0].Int()
	}
	// Fold the piggybacked segfile updates in: their tuple counts are the
	// table's row count, which the auto-ANALYZE sweep reads as is.
	cat := s.eng.cl.Cat()
	for _, u := range res.Updates {
		if err := cat.UpdateSegFile(t, u.File); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: affected, Tag: fmt.Sprintf("INSERT 0 %d", affected)}, nil
}

// CopyFrom bulk-loads rows into a table without going through the SQL
// parser: the COPY path ETL tools use. Rows are cast to the table's
// column kinds and routed by its distribution policy, through the same
// transactional lane machinery as INSERT.
func (s *Session) CopyFrom(table string, rows []types.Row) (int64, error) {
	ctx, done := s.beginStatement()
	defer done()
	if s.cur != nil {
		res, err := s.copyInTx(ctx, s.cur, table, rows)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	}
	t := s.eng.cl.TxMgr.Begin(s.level)
	res, err := s.copyInTx(ctx, t, table, rows)
	if err != nil {
		t.Abort()
		s.releaseTx(t)
		return 0, err
	}
	if err := t.Commit(); err != nil {
		s.releaseTx(t)
		return 0, err
	}
	s.releaseTx(t)
	return res.Affected, nil
}

func (s *Session) copyInTx(ctx context.Context, t *tx.Tx, table string, rows []types.Row) (*Result, error) {
	name := strings.ToLower(table)
	desc, err := s.eng.cl.Cat().LookupTable(t.Snapshot(), name)
	if err != nil {
		return nil, err
	}
	if err := s.eng.cl.Locks.Acquire(t.XID(), name, tx.RowExclusive); err != nil {
		return nil, err
	}
	targets, segno, err := s.insertTargets(t, desc)
	if err != nil {
		return nil, err
	}
	p := s.newPlanner(ctx, t)
	pl, err := p.PlanCopy(rows, targets, segno)
	if err != nil {
		return nil, err
	}
	return s.dispatchDML(ctx, t, pl)
}
