package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"hawq/internal/catalog"
	"hawq/internal/cluster"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
)

// ErrQueueTimeout is the failure reported when the statement's
// cancellation scope fires (statement_timeout or client cancel) while
// it is still waiting for admission in its resource queue: the
// statement never started executing.
var ErrQueueTimeout = errors.New("engine: canceling statement while waiting in resource queue")

// dispatch runs a plan on the cluster under the session's workload
// settings (applyResourceLimits). A statement's first dispatch waits
// FIFO for a slot in the session's resource queue before any gang is
// started (§2.4's admission), whatever the statement is: SELECT,
// INSERT, COPY or EXPLAIN ANALYZE. Its later dispatches (a restart, a
// scalar subquery) run under that one
// slot, which the statement's lifecycle gives back when it ends. The
// statement's cancellation context aborts the wait cleanly: a queued
// statement holds no slot and has started no gang.
func (s *Session) dispatch(ctx context.Context, pl *plan.Plan) (*cluster.QueryResult, error) {
	if s.slot == nil && s.queue != "" {
		q := s.eng.res.Lookup(s.queue)
		if q == nil {
			return nil, fmt.Errorf("engine: resource queue %q does not exist", s.queue)
		}
		if err := q.Acquire(ctx); err != nil {
			if errors.Is(err, ErrStatementTimeout) || errors.Is(err, ErrQueryCanceled) {
				return nil, fmt.Errorf("%w (queue %q): %w", ErrQueueTimeout, q.Name(), err)
			}
			return nil, err
		}
		s.slot = q
	}
	s.applyResourceLimits(pl)
	return s.eng.cl.Dispatch(ctx, pl, nil)
}

// applyResourceLimits stamps the session's workload-manager settings
// into a plan before dispatch: work_mem verbatim, and the queue's
// memory_limit split evenly into per-node grants that travel with the
// self-described plan.
func (s *Session) applyResourceLimits(pl *plan.Plan) {
	pl.WorkMem = s.workMem
	if s.queue == "" {
		return
	}
	q := s.eng.res.Lookup(s.queue)
	if q == nil || q.MemLimit() <= 0 {
		return
	}
	n := int64(pl.NumSegments)
	if n < 1 {
		n = 1
	}
	grant := q.MemLimit() / n
	if grant < 1 {
		grant = 1
	}
	pl.MemGrant = grant
}

func (s *Session) runCreateResourceQueue(t *tx.Tx, stmt *sqlparser.CreateResourceQueueStmt) (*Result, error) {
	var memLimit int64
	if stmt.MemoryLimit != "" {
		n, err := resource.ParseBytes(stmt.MemoryLimit)
		if err != nil {
			return nil, err
		}
		memLimit = n
	}
	d := catalog.ResQueueDesc{
		Name:             strings.ToLower(stmt.Name),
		ActiveStatements: stmt.ActiveStatements,
		MemLimit:         memLimit,
	}
	if err := s.eng.cl.Cat().CreateResourceQueue(t, d); err != nil {
		return nil, err
	}
	mgr := s.eng.res
	t.OnCommit(func() {
		// Mirror the committed catalog row into the runtime manager. A
		// duplicate means a concurrent creator won the race; the existing
		// registration stands.
		//hawqcheck:ignore errdrop
		mgr.Create(d.Name, int(d.ActiveStatements), d.MemLimit)
	})
	return &Result{Tag: "CREATE RESOURCE QUEUE"}, nil
}

func (s *Session) runDropResourceQueue(t *tx.Tx, stmt *sqlparser.DropResourceQueueStmt) (*Result, error) {
	name := strings.ToLower(stmt.Name)
	if err := s.eng.cl.Cat().DropResourceQueue(t, name); err != nil {
		if stmt.IfExists {
			return &Result{Tag: "DROP RESOURCE QUEUE"}, nil
		}
		return nil, err
	}
	// Refuse to drop a busy queue: its waiters would be stranded with no
	// Release ever handing their slot over.
	if q := s.eng.res.Lookup(name); q != nil {
		st := q.Stats()
		if st.Active > 0 || st.Queued > 0 {
			return nil, fmt.Errorf("engine: resource queue %q is busy (%d active, %d queued): %w",
				name, st.Active, st.Queued, resource.ErrQueueBusy)
		}
	}
	mgr := s.eng.res
	t.OnCommit(func() {
		// Deregistration is best effort: a statement admitted after the
		// busy check keeps its already-acquired slot.
		//hawqcheck:ignore errdrop
		mgr.Drop(name)
	})
	return &Result{Tag: "DROP RESOURCE QUEUE"}, nil
}
