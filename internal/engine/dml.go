package engine

import (
	"context"
	"fmt"
	"strings"

	"hawq/internal/catalog"
	"hawq/internal/plan"
	"hawq/internal/planner"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// runInsert executes INSERT: a system table's row goes through CaQL on
// the master (§2.2); a user table's rows, from VALUES or a SELECT, go
// through the write path COPY shares.
func (s *Session) runInsert(ctx context.Context, t *tx.Tx, stmt *sqlparser.InsertStmt) (*Result, error) {
	if isSystemTable(stmt.Table) {
		res, err := s.eng.cl.Cat().CaQL(t, stmt.String())
		if err != nil {
			return nil, err
		}
		return &Result{Affected: int64(res.Affected), Tag: fmt.Sprintf("INSERT 0 %d", res.Affected)}, nil
	}
	return s.write(ctx, t, stmt.Table, func(p *planner.Planner, targets []plan.InsertTarget, segno int) (*plan.Plan, error) {
		if stmt.Select != nil {
			if err := s.lockTables(t, stmt.Select, tx.AccessShare); err != nil {
				return nil, err
			}
		}
		return p.PlanInsert(stmt, targets, segno)
	})
}

// CopyFrom bulk-loads rows into a table without going through the SQL
// parser: the COPY path ETL tools use. It is one statement of the
// session, run as INSERT is (same lifecycle, same write path), so COPY
// refuses whatever INSERT refuses; only the row source differs. Rows
// are cast to the table's column kinds and routed by its distribution
// policy.
func (s *Session) CopyFrom(table string, rows []types.Row) (int64, error) {
	res, err := s.runTransactional(context.Background(), statementText("COPY "+table+" FROM STDIN"), func(ctx context.Context, t *tx.Tx) (*Result, error) {
		return s.write(ctx, t, table, func(p *planner.Planner, targets []plan.InsertTarget, segno int) (*plan.Plan, error) {
			return p.PlanCopy(rows, targets, segno)
		})
	})
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// write is the one write path of INSERT and COPY. It looks the table
// up and refuses what only another path may write (a system table: CaQL;
// an external table: its connector; a partition child: its parent, which
// routes rows by the partition key), takes the RowExclusive lock,
// assigns the transaction's swimming lane (§5.4), plans the rows with
// source, dispatches, and folds the piggybacked segment-file updates
// into the catalog as MVCC updates (§3.1). The rows become visible at
// commit; an abort truncates the appended bytes away (§5.3).
func (s *Session) write(ctx context.Context, t *tx.Tx, table string, source func(*planner.Planner, []plan.InsertTarget, int) (*plan.Plan, error)) (*Result, error) {
	name := strings.ToLower(table)
	if isSystemTable(name) {
		return nil, fmt.Errorf("engine: cannot write system table %s through the executor; use INSERT", name)
	}
	desc, err := s.eng.cl.Cat().LookupTable(t.Snapshot(), name)
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
	targets, segno, err := s.insertTargets(t, desc)
	if err != nil {
		return nil, err
	}
	pl, err := source(s.newPlanner(ctx, t), targets, segno)
	if err != nil {
		return nil, err
	}
	// A write is never restarted: a segment failure mid-write aborts the
	// transaction, whose OnAbort hooks truncate the appended bytes away
	// (§5.3), so the statement fails with a clear abort error.
	res, err := s.dispatch(ctx, pl)
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
	// The updates carry the lanes' tuple counts and column statistics.
	for _, u := range res.Updates {
		if err := s.eng.cl.Cat().UpdateSegFile(t, u.File); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: affected, Tag: fmt.Sprintf("INSERT 0 %d", affected)}, nil
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
