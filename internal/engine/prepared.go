package engine

import (
	"context"
	"fmt"

	"hawq/internal/planner"
	"hawq/internal/session"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// Prepared statements (§2.4's parse-once / dispatch-many path). PREPARE
// parses and registers the statement body; EXECUTE resolves it, binds
// the argument values, and runs it through the normal transactional
// machinery. The plan cache in runSelectRows is what makes the repeat
// executions cheap: the first EXECUTE plans generically (placeholders
// stay symbolic) and later ones reuse the cached plan with fresh
// parameter values bound in.

// registry returns the session's prepared-statement registry, creating
// it on first use.
func (s *Session) registry() *session.Registry {
	if s.prep == nil {
		s.prep = session.NewRegistry()
	}
	return s.prep
}

// runPrepare registers a parsed PREPARE statement. Like SET, it is
// session state, not a transactional statement.
func (s *Session) runPrepare(v *sqlparser.PrepareStmt) (*Result, error) {
	p := &session.Prepared{
		Name:      v.Name,
		Stmt:      v.Stmt,
		SQL:       v.Stmt.String(),
		NumParams: sqlparser.MaxParam(v.Stmt),
	}
	if err := s.registry().Put(p); err != nil {
		return nil, err
	}
	return &Result{Tag: "PREPARE"}, nil
}

// runDeallocate removes one prepared statement, or all of them.
func (s *Session) runDeallocate(v *sqlparser.DeallocateStmt) (*Result, error) {
	if v.All {
		s.registry().Clear()
		return &Result{Tag: "DEALLOCATE ALL"}, nil
	}
	if err := s.registry().Remove(v.Name); err != nil {
		return nil, err
	}
	return &Result{Tag: "DEALLOCATE"}, nil
}

// executeArgs evaluates an EXECUTE's argument list to datum values.
// Arguments are constant scalar expressions (literals, arithmetic on
// literals); they cannot reference columns or other placeholders.
func executeArgs(v *sqlparser.ExecuteStmt) ([]types.Datum, error) {
	args := make([]types.Datum, len(v.Args))
	for i, a := range v.Args {
		d, err := planner.EvalConst(a)
		if err != nil {
			return nil, fmt.Errorf("engine: EXECUTE argument %d: %w", i+1, err)
		}
		args[i] = d
	}
	return args, nil
}

// runPrepared runs the body of prepared statement name with args bound
// to its $n placeholders: the work of EXECUTE and of ExecutePrepared.
func (s *Session) runPrepared(ctx context.Context, t *tx.Tx, name string, args []types.Datum) (*Result, error) {
	p, err := s.registry().Get(name)
	if err == nil {
		err = p.ValidateArgCount(len(args))
	}
	if err != nil {
		return nil, err
	}
	s.curParams = args
	return s.runInTx(ctx, t, p.Stmt)
}

// Prepare registers a prepared statement from raw SQL — the wire
// protocol's Parse message and the benchmark driver use this instead of
// the PREPARE syntax.
func (s *Session) Prepare(name, sql string) error {
	if name == "" {
		return fmt.Errorf("engine: prepared statement name must not be empty")
	}
	stmts, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	if len(stmts) != 1 {
		return fmt.Errorf("engine: Prepare requires exactly one statement, got %d", len(stmts))
	}
	ps, err := sqlparser.NewPrepare(name, stmts[0])
	if err == nil {
		_, err = s.runPrepare(ps)
	}
	return err
}

// ExecutePrepared runs a prepared statement with already-materialized
// argument values — the wire protocol's Execute message and the
// benchmark driver use this instead of the EXECUTE syntax. It is a
// statement of the session like any other: a failure, an unknown name
// included, aborts the open transaction block.
func (s *Session) ExecutePrepared(name string, args ...types.Datum) (*Result, error) {
	return s.runTransactional(context.Background(), &sqlparser.ExecuteStmt{Name: name}, func(ctx context.Context, t *tx.Tx) (*Result, error) {
		return s.runPrepared(ctx, t, name, args)
	})
}

// Deallocate removes a prepared statement by name ("" removes all).
func (s *Session) Deallocate(name string) error {
	_, err := s.runDeallocate(&sqlparser.DeallocateStmt{Name: name, All: name == ""})
	return err
}
