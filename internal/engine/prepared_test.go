package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/types"
)

func TestPrepareExecuteDeallocate(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)

	mustExec(t, s, "PREPARE getbal AS SELECT balance FROM accounts WHERE id = $1")
	res := mustExec(t, s, "EXECUTE getbal (7)")
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "700.50" {
		t.Fatalf("EXECUTE getbal(7) = %v", rowsString(res))
	}
	res = mustExec(t, s, "EXECUTE getbal (42)")
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "4200.50" {
		t.Fatalf("EXECUTE getbal(42) = %v", rowsString(res))
	}

	// Wrong arity and unknown names are errors.
	if _, err := s.Query("EXECUTE getbal (1, 2)"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := s.Query("EXECUTE nosuch"); err == nil {
		t.Fatal("unknown prepared statement accepted")
	}
	// Duplicate names are errors until deallocated.
	if _, err := s.Query("PREPARE getbal AS SELECT 1"); err == nil {
		t.Fatal("duplicate PREPARE accepted")
	}
	mustExec(t, s, "DEALLOCATE getbal")
	if _, err := s.Query("EXECUTE getbal (7)"); err == nil {
		t.Fatal("EXECUTE after DEALLOCATE accepted")
	}
	mustExec(t, s, "PREPARE getbal AS SELECT count(*) FROM accounts")
	mustExec(t, s, "DEALLOCATE ALL")
	if _, err := s.Query("EXECUTE getbal"); err == nil {
		t.Fatal("EXECUTE after DEALLOCATE ALL accepted")
	}

	// Placeholders must be contiguous from $1.
	if _, err := s.Query("PREPARE bad AS SELECT balance FROM accounts WHERE id = $2"); err == nil {
		t.Fatal("gap in parameter numbering accepted")
	}
	// Placeholders outside PREPARE are rejected before they are
	// planned, so no cache slot holds a plan no execution can bind.
	size := e.PlanCache().Stats().Size
	if _, err := s.Query("SELECT owner FROM accounts WHERE id = $1"); err == nil ||
		err.Error() != "plan: expected 1 parameters, got 0" {
		t.Fatalf("bare placeholder: err = %v", err)
	}
	if got := e.PlanCache().Stats().Size; got != size {
		t.Fatalf("plan cache holds %d plans after the refusal, %d before", got, size)
	}
}

// TestDatePlusIntervalCoercesItsOperand: the operand of date ± INTERVAL
// is a date whatever spells it — a string constant is cast to one, as a
// comparison casts it, and a bare $n is typed as one, so an EXECUTE
// with a string argument answers as one with a DATE argument.
func TestDatePlusIntervalCoercesItsOperand(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE days (k INT8, d DATE) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO days VALUES (1, DATE '2014-01-01'), (2, DATE '2014-01-04')")

	if got := mustExec(t, s, "SELECT '2014-01-02' + INTERVAL '3 day'").Rows[0][0].String(); got != "2014-01-05" {
		t.Errorf("'2014-01-02' + INTERVAL '3 day' = %s, want 2014-01-05", got)
	}
	if got := mustExec(t, s, "SELECT '2014-01-02' - INTERVAL '1' MONTH").Rows[0][0].String(); got != "2013-12-02" {
		t.Errorf("'2014-01-02' - INTERVAL '1' MONTH = %s, want 2013-12-02", got)
	}
	if _, err := s.Query("SELECT 'soon' + INTERVAL '3 day'"); err == nil {
		t.Error("'soon' + INTERVAL accepted")
	}
	// The string form folds to a constant as the DATE form does, so the
	// scan's filter (and a zone map) sees the value.
	plan := strings.Join(rowsString(mustExec(t, s, "EXPLAIN SELECT k FROM days WHERE d < '2014-01-02' + INTERVAL '3 day'")), "\n")
	if !strings.Contains(plan, "(d < 2014-01-05)") {
		t.Errorf("filter not folded to a constant:\n%s", plan)
	}
	mustExec(t, s, "PREPARE q AS SELECT count(*) FROM days WHERE d < $1 + INTERVAL '3 day'")
	for _, q := range []string{
		"SELECT count(*) FROM days WHERE d < '2014-01-02' + INTERVAL '3 day'",
		"EXECUTE q ('2014-01-02')",
		"EXECUTE q (DATE '2014-01-02')",
	} {
		if got := mustExec(t, s, q).Rows[0][0].Int(); got != 2 {
			t.Errorf("%s = %d rows, want 2", q, got)
		}
	}
}

func TestPreparedAPIAndParamKinds(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)

	// The wire-protocol entry points: Prepare / ExecutePrepared.
	if err := s.Prepare("q", "SELECT owner, balance FROM accounts WHERE opened < $1 AND id <= $2 ORDER BY id"); err != nil {
		t.Fatal(err)
	}
	// A string argument compared to a DATE column is cast via the
	// inferred parameter kind.
	res, err := s.ExecutePrepared("q", types.NewString("2013-06-01"), types.NewInt64(5))
	if err != nil {
		t.Fatal(err)
	}
	// Ids 1..5 open in months 2..6; only months before June qualify.
	if len(res.Rows) != 4 {
		t.Fatalf("date-bounded prepared query returned %v", rowsString(res))
	}
	if err := s.Deallocate("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecutePrepared("q", types.NewString("x"), types.NewInt64(1)); err == nil {
		t.Fatal("ExecutePrepared after Deallocate accepted")
	}
}

func TestPlanCacheHitRateAndParamRebinding(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)

	mustExec(t, s, "PREPARE getbal AS SELECT balance FROM accounts WHERE id = $1")
	before := e.PlanCache().Stats()
	const n = 50
	for i := 1; i <= n; i++ {
		res := mustExec(t, s, fmt.Sprintf("EXECUTE getbal (%d)", i))
		want := fmt.Sprintf("%d.50", i*100)
		if len(res.Rows) != 1 || res.Rows[0][0].String() != want {
			t.Fatalf("EXECUTE getbal(%d) = %v, want %s", i, rowsString(res), want)
		}
	}
	st := e.PlanCache().Stats()
	hits := st.Hits - before.Hits
	// First execution misses and stores; the other n-1 must all hit (the
	// acceptance bar is a >90% hit rate on a repeated mix).
	if hits < n-1 {
		t.Fatalf("plan cache hits = %d of %d executions (stats %+v)", hits, n, st)
	}
}

func TestPlanCacheSimpleQueryReuse(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)

	const q = "SELECT count(*) FROM accounts"
	mustExec(t, s, q)
	before := e.PlanCache().Stats()
	mustExec(t, s, q)
	st := e.PlanCache().Stats()
	if st.Hits <= before.Hits {
		t.Fatalf("repeated simple query did not hit the cache: %+v -> %+v", before, st)
	}
}

func TestPlanCacheDDLInvalidation(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)

	mustExec(t, s, "PREPARE cnt AS SELECT count(*) FROM accounts WHERE id <= $1")
	res := mustExec(t, s, "EXECUTE cnt (1000)")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count = %v, want 100", res.Rows[0][0])
	}
	// Ensure the plan is cached (second execution hits).
	before := e.PlanCache().Stats()
	mustExec(t, s, "EXECUTE cnt (1000)")
	if st := e.PlanCache().Stats(); st.Hits <= before.Hits {
		t.Fatalf("expected a cache hit before invalidation: %+v", st)
	}

	// New data commits bump the catalog version (the segment-file
	// catalog changed), so the cached plan — which embeds the visible
	// file lists — must NOT be reused: a stale plan would return 100.
	mustExec(t, s, "INSERT INTO accounts VALUES (101, 'newbie', 1.00, DATE '2013-05-01')")
	res = mustExec(t, s, "EXECUTE cnt (1000)")
	if res.Rows[0][0].Int() != 101 {
		t.Fatalf("stale plan served after INSERT: count = %v, want 101", res.Rows[0][0])
	}

	// DDL on another table also invalidates (version is global), and
	// dropping the queried table makes execution fail instead of
	// serving rows from a dropped relation's cached plan.
	mustExec(t, s, "DROP TABLE accounts")
	if _, err := s.Query("EXECUTE cnt (1000)"); err == nil {
		t.Fatal("cached plan served for a dropped table")
	}
}

// TestPlanCacheHasNoSettings: the cache is sized by a constant and no
// session opts out of it, so SET of either old setting is refused as any
// unknown name is; SHOW plan_cache still reports its size, capacity and
// counters.
func TestPlanCacheHasNoSettings(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	for _, sql := range []string{"SET plan_cache = off", "SET plan_cache_size = 0", "SHOW plan_cache_size"} {
		if _, err := s.Query(sql); err == nil {
			t.Errorf("%s accepted", sql)
		} else if strings.HasPrefix(sql, "SET") && !strings.Contains(err.Error(), "unrecognized configuration parameter") {
			t.Errorf("%s: %v", sql, err)
		}
	}
	res := mustExec(t, s, "SHOW plan_cache")
	got := map[string]int64{}
	for _, r := range res.Rows {
		got[r[0].Str()] = r[1].Int()
	}
	if len(res.Rows) != 7 || got["capacity"] != 256 {
		t.Fatalf("SHOW plan_cache = %v", rowsString(res))
	}
	for _, name := range []string{"size", "hits", "misses", "invalidations", "evictions", "stores"} {
		if _, ok := got[name]; !ok {
			t.Errorf("SHOW plan_cache has no %s", name)
		}
	}
}

func TestPlanCacheInsideExplicitTxWithOwnDDL(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)

	// Inside a transaction that already wrote plan-relevant catalog
	// state, the cache is bypassed entirely: its own uncommitted writes
	// are invisible to the global catalog version.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO accounts VALUES (200, 'tx', 5.00, DATE '2013-01-01')")
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 101 {
		t.Fatalf("in-tx count = %v, want 101", res.Rows[0][0])
	}
	mustExec(t, s, "ROLLBACK")
	res = mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("post-rollback count = %v, want 100", res.Rows[0][0])
	}
}

// TestConcurrentPreparedExecutionWithDDL is the -race stress required by
// the issue: many sessions concurrently preparing, executing and
// deallocating while another session churns DDL and ANALYZE, which
// invalidates cached plans. Correctness bar: no races, no panics, and
// every successful count matches one of the legal table states.
func TestConcurrentPreparedExecutionWithDDL(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)

	const sessions = 64
	const iters = 15
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := e.NewSession()
			name := fmt.Sprintf("q%d", g)
			if err := sess.Prepare(name, "SELECT count(*) FROM accounts WHERE id >= $1"); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < iters; i++ {
				res, err := sess.ExecutePrepared(name, types.NewInt64(1))
				if err != nil {
					// Concurrent DDL may abort a statement; that is
					// acceptable, wrong rows are not.
					continue
				}
				got := res.Rows[0][0].Int()
				if got < 100 || got > 100+int64(iters) {
					errCh <- fmt.Errorf("session %d: impossible count %d", g, got)
					return
				}
			}
			if err := sess.Deallocate(name); err != nil {
				errCh <- err
			}
		}(g)
	}
	// DDL/stats churn alongside the executors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ddl := e.NewSession()
		for i := 0; i < iters; i++ {
			if _, err := ddl.Query(fmt.Sprintf(
				"INSERT INTO accounts VALUES (%d, 'x', 1.00, DATE '2013-01-01')", 1000+i)); err != nil {
				continue
			}
			//hawqcheck:ignore errdrop
			ddl.Query("ANALYZE accounts")
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil && !strings.Contains(err.Error(), "lock") {
			t.Fatal(err)
		}
	}
}

// TestDirectDispatchWhenKeyIsNotFirstOutput: a point lookup whose
// distribution key is the table's last column and only its filter
// references it. The scan outputs (v, k) — the key at position 1, table
// column 2 — and direct dispatch, constant or deferred to bind time,
// must still hash to the segment the insert path stored the row on: a
// wrong index would send the one-QE gang to an empty segment.
func TestDirectDispatchWhenKeyIsNotFirstOutput(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (pad TEXT, v TEXT, k INT8) DISTRIBUTED BY (k)")
	var vals []string
	for i := 0; i < 64; i++ {
		vals = append(vals, fmt.Sprintf("('pad-%d', 'value-%d', %d)", i, i, i))
	}
	mustExec(t, s, "INSERT INTO kv VALUES "+strings.Join(vals, ", "))
	explain := strings.Join(rowsString(mustExec(t, s, "EXPLAIN SELECT v FROM kv WHERE k = 7")), "\n")
	if !strings.Contains(explain, "Slice 1 (segments [") || !strings.Contains(explain, "cols=2/3") {
		t.Fatalf("point lookup is not a narrow direct dispatch:\n%s", explain)
	}
	mustExec(t, s, "PREPARE getv AS SELECT v FROM kv WHERE k = $1")
	for i := 0; i < 64; i++ {
		want := fmt.Sprintf("value-%d", i)
		for _, sql := range []string{fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i), fmt.Sprintf("EXECUTE getv (%d)", i)} {
			res := mustExec(t, s, sql)
			if len(res.Rows) != 1 || res.Rows[0][0].Str() != want {
				t.Fatalf("%s = %v, want %s", sql, rowsString(res), want)
			}
		}
	}
}

// TestCachedPointPlanRunsOneQE: one prepared point statement, planned
// once and served from the plan cache, answers keys held by each of
// four segments, and each execution runs a single QE — the bound value
// pins the slice to the segment that holds it. A QE's stream to the QD
// is two datagrams (TestShortStreamDatagrams); a four-segment gang
// sends eight.
func TestCachedPointPlanRunsOneQE(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k INT8, v TEXT) DISTRIBUTED BY (k)")
	keyOf := map[int]int64{} // segment → a key it holds
	var vals []string
	for k := int64(0); len(keyOf) < 4; k++ {
		seg, err := plan.KeySegment([]plan.DirectKey{{Param: -1, Const: types.NewInt64(k)}}, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := keyOf[seg]; !ok {
			keyOf[seg] = k
		}
		vals = append(vals, fmt.Sprintf("(%d, 'v%d')", k, k))
	}
	mustExec(t, s, "INSERT INTO kv VALUES "+strings.Join(vals, ", "))
	if err := s.Prepare("getv", "SELECT v FROM kv WHERE k = $1"); err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 4; seg++ { // planned once, then cached; caches warm
		if _, err := s.ExecutePrepared("getv", types.NewInt64(keyOf[seg])); err != nil {
			t.Fatal(err)
		}
	}
	for seg := 0; seg < 4; seg++ {
		k := keyOf[seg]
		hits, sent := e.PlanCache().Stats().Hits, obs.Value("interconnect.udp_packets_sent")
		res, err := s.ExecutePrepared("getv", types.NewInt64(k))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%d", k); len(res.Rows) != 1 || res.Rows[0][0].Str() != want {
			t.Fatalf("getv(%d) on segment %d = %v, want %s", k, seg, rowsString(res), want)
		}
		if got := e.PlanCache().Stats().Hits - hits; got != 1 {
			t.Errorf("getv(%d): %d plan cache hits, want 1", k, got)
		}
		if got := obs.Value("interconnect.udp_packets_sent") - sent; got != 2 {
			t.Errorf("getv(%d) on segment %d: %d datagrams, want the 2 of one QE", k, seg, got)
		}
	}
}
