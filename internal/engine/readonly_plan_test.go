package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/session"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// cachedPlan returns the plan cache's entry for sql under the current
// catalog version, keyed as planCached keys it.
func cachedPlan(t *testing.T, e *Engine, sql string) *plan.Plan {
	t.Helper()
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	flags := e.Flags()
	key := session.Fingerprint(stmt.String(), e.cl.NumSegments(),
		flags.DisableDirectDispatch, flags.DisablePartitionElim, flags.DisableColocation)
	tr := e.cl.TxMgr.Begin(tx.ReadCommitted)
	ver := tr.Snapshot().CatVer
	tr.Abort()
	v, ok := e.PlanCache().Get(key, ver)
	if !ok {
		t.Fatalf("%s is not cached", sql)
	}
	return v.(*plan.Plan)
}

// exprNodes lists every expression node of p's nodes, in walk order.
func exprNodes(p *plan.Plan) []expr.Expr {
	var out []expr.Expr
	p.Walk(func(n plan.Node) {
		plan.MapExprs(n, func(e expr.Expr) expr.Expr {
			expr.Walk(e, func(x expr.Expr) { out = append(out, x) })
			return e
		})
	})
	return out
}

// TestSharedPlanStaysReadOnly: one cached generic plan serves eight
// sessions at once, each with its own argument and each getting its own
// row, and it is the same plan afterwards — the same EXPLAIN, the very
// same expression nodes, its $1 still a placeholder. One bound plan is
// also dispatched from several goroutines at once. Run it under -race.
func TestSharedPlanStaysReadOnly(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)
	// current_date is bound at build too: every account opened before it.
	const sql = "SELECT balance FROM accounts WHERE id = $1 AND opened < current_date()"
	if err := s.Prepare("warm", sql); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecutePrepared("warm", types.NewInt64(1)); err != nil {
		t.Fatal(err)
	}
	cached := cachedPlan(t, e, sql)
	explain := cached.Explain()
	nodes := exprNodes(cached)
	texts := make([]string, len(nodes))
	params := 0
	for i, x := range nodes {
		texts[i] = x.String()
		if _, ok := x.(*expr.Param); ok {
			params++
		}
	}
	if params != 1 {
		t.Fatalf("cached plan holds %d placeholders, want 1:\n%s", params, explain)
	}

	const sessions, iters = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := e.NewSession()
			if err := sess.Prepare("p", sql); err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				id := g*12 + i%12 + 1
				res, err := sess.ExecutePrepared("p", types.NewInt64(int64(id)))
				if err != nil {
					errs <- err
					return
				}
				if want := fmt.Sprintf("%d.50", id*100); len(res.Rows) != 1 || res.Rows[0][0].String() != want {
					errs <- fmt.Errorf("session %d, id %d: %v, want %s", g, id, rowsString(res), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := cachedPlan(t, e, sql); got != cached {
		t.Fatal("the cached entry was replaced")
	}
	if got := cached.Explain(); got != explain {
		t.Fatalf("cached plan changed:\nbefore:\n%s\nafter:\n%s", explain, got)
	}
	after := exprNodes(cached)
	if len(after) != len(nodes) {
		t.Fatalf("cached plan has %d expression nodes, had %d", len(after), len(nodes))
	}
	for i, x := range after {
		if x != nodes[i] || x.String() != texts[i] {
			t.Fatalf("expression node %d: %s, was %s", i, x, texts[i])
		}
	}

	// One *plan.Plan, dispatched from several goroutines at once.
	pl, err := cached.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.BindParams([]types.Datum{types.NewInt64(42)}); err != nil {
		t.Fatal(err)
	}
	errs = make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.cl.Dispatch(context.Background(), pl, nil)
			if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].String() != "4200.50") {
				err = fmt.Errorf("concurrent dispatch of one plan: %v", res.Rows)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := cached.Explain(); got != explain {
		t.Fatalf("cached plan changed by its bound copy's dispatches:\n%s", got)
	}
}

// TestPlaceholderComparisonCheckedAtBind: in `coalesce($1, k) = $2 AND
// $1 = k AND $2 = s` the first comparison is bound while both
// placeholders are of unknown kind, and the later conjuncts type them, so
// the plan has no untyped placeholder left for BindParams to check — yet
// the first comparison orders a BIGINT against a TEXT. Each operator's
// bound copy is checked as it is built: the statement fails cleanly and
// the engine keeps serving. Evaluated as it was, the comparison reached
// types.Compare, which panics, in a QE goroutine nothing recovers.
func TestPlaceholderComparisonCheckedAtBind(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k INT8, s TEXT) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if err := s.Prepare("p", "SELECT count(*) FROM t WHERE coalesce($1, k) = $2 AND $1 = k AND $2 = s"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // planned, then cached
		if _, err := s.ExecutePrepared("p", types.NewInt64(1), types.NewString("x")); err == nil || !strings.Contains(err.Error(), "cannot compare") {
			t.Fatalf("execution %d: err %v, want a cannot-compare error", i, err)
		}
	}
	if res := mustExec(t, s, "SELECT count(*) FROM t WHERE k = 1 AND s = 'x'"); res.Rows[0][0].Int() != 1 {
		t.Fatalf("after the refused statement: %v", rowsString(res))
	}
}
