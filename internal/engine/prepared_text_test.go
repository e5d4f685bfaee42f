package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"hawq/internal/sqlparser"
)

// setupPreparedShapes makes the tables the prepared-vs-text shapes read:
// a (hash on k), b (the scalar subqueries' lookup table), dk (a DOUBLE
// distribution key) and p (range-partitioned by month).
func setupPreparedShapes(t *testing.T, s *Session) {
	mustExec(t, s, "CREATE TABLE a (k INT8, v INT8, s TEXT, d DATE) DISTRIBUTED BY (k)")
	mustExec(t, s, "CREATE TABLE b (k INT8, w INT8) DISTRIBUTED BY (k)")
	mustExec(t, s, "CREATE TABLE dk (f DOUBLE PRECISION, n INT8) DISTRIBUTED BY (f)")
	mustExec(t, s, `CREATE TABLE p (k INT8, d DATE) DISTRIBUTED BY (k) PARTITION BY RANGE (d)
		(START (DATE '2014-01-01') INCLUSIVE END (DATE '2014-04-01') EXCLUSIVE EVERY (INTERVAL '1 month'))`)
	var as, ps, dks []string
	for k := 1; k <= 30; k++ {
		name := fmt.Sprintf("n%d", k)
		switch k % 7 {
		case 3:
			name += "%x"
		case 5:
			name += "_y"
		}
		as = append(as, fmt.Sprintf("(%d, %d, '%s', DATE '2014-01-01' + INTERVAL '%d day')", k, k%6, name, k))
		ps = append(ps, fmt.Sprintf("(%d, DATE '2014-01-01' + INTERVAL '%d day')", k, 3*k-2))
		dks = append(dks, fmt.Sprintf("(%d.5, %d)", k%8, k))
	}
	mustExec(t, s, "INSERT INTO a VALUES "+strings.Join(as, ", "))
	mustExec(t, s, "INSERT INTO p VALUES "+strings.Join(ps, ", "))
	mustExec(t, s, "INSERT INTO dk VALUES "+strings.Join(dks, ", "))
	mustExec(t, s, "INSERT INTO b VALUES (1, 1), (2, 2), (3, 3), (4, 5), (5, 4)")
}

// withLiterals is sql with each $n replaced by the literal args[n-1].
func withLiterals(sql string, args []string) string {
	for n := len(args); n >= 1; n-- {
		sql = strings.ReplaceAll(sql, fmt.Sprintf("$%d", n), args[n-1])
	}
	return sql
}

// multiset is a result's rows, rendered and sorted.
func multiset(res *Result) []string {
	rows := rowsString(res)
	slices.Sort(rows)
	return rows
}

// TestPreparedMatchesText: a prepared SELECT returns, for every argument
// set, the rows its text returns with the arguments written in as
// literals — whatever a stored plan was planned for. Each shape runs with
// argument sets A, B, A through EXECUTE in one session and through
// ExecutePrepared in another, so the second session's executions and the
// repeats hit the plan the first execution stored. The scalar subqueries
// are evaluated while planning: their plans are one-shot, never stored.
func TestPreparedMatchesText(t *testing.T) {
	e := newTestEngine(t, 4)
	s1, s2 := e.NewSession(), e.NewSession()
	setupPreparedShapes(t, s1)
	for i, tc := range []struct {
		name string
		sql  string
		a, b []string
	}{
		{"point", "SELECT k, v, s, d FROM a WHERE k = $1", []string{"3"}, []string{"17"}},
		{"IN", "SELECT k FROM a WHERE k IN ($1, $2, 11)", []string{"2", "5"}, []string{"29", "7"}},
		{"BETWEEN", "SELECT k FROM a WHERE v BETWEEN $1 AND $2", []string{"1", "2"}, []string{"4", "5"}},
		{"date range, string arguments", "SELECT k FROM a WHERE d >= $1 AND d < $2",
			[]string{"'2014-01-04'", "'2014-01-09'"}, []string{"'2014-01-20'", "'2014-02-02'"}},
		{"date + INTERVAL", "SELECT k FROM a WHERE d < $1 + INTERVAL '3 day'",
			[]string{"DATE '2014-01-02'"}, []string{"DATE '2014-01-10'"}},
		{"partitioned range", "SELECT k, d FROM p WHERE d >= $1 AND d < $2",
			[]string{"'2014-01-10'", "'2014-02-05'"}, []string{"'2014-03-01'", "'2014-03-20'"}},
		{"CAST", "SELECT k FROM a WHERE d = CAST($1 AS DATE)", []string{"'2014-01-05'"}, []string{"'2014-01-21'"}},
		{"extract", "SELECT k FROM a WHERE extract(day FROM d) = $1", []string{"6"}, []string{"30"}},
		{"$1 in the select list", "SELECT k, $1 FROM a WHERE k < 4", []string{"7"}, []string{"'x'"}},
		{"OR", "SELECT k FROM a WHERE k = $1 OR v = $2", []string{"1", "4"}, []string{"12", "0"}},
		{"HAVING", "SELECT v, count(*) FROM a GROUP BY v HAVING count(*) > $1", []string{"4"}, []string{"5"}},
		{"join filter", "SELECT a.k, b.w FROM a, b WHERE a.v = b.k AND b.w > $1", []string{"3"}, []string{"1"}},
		{"EXISTS", "SELECT k FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.k = a.v AND b.w > $1)", []string{"3"}, []string{"1"}},
		{"IN subquery", "SELECT k FROM a WHERE v IN (SELECT k FROM b WHERE w >= $1)", []string{"5"}, []string{"2"}},
		{"LIKE", "SELECT k FROM a WHERE s LIKE $1", []string{"'n1%'"}, []string{"'%5'"}},
		{"LIKE with _", "SELECT k FROM a WHERE s LIKE $1", []string{"'n_'"}, []string{"'%\\_y'"}},
		{"LIKE with an escape", "SELECT k FROM a WHERE s NOT LIKE $1", []string{"'%\\%x'"}, []string{"'n2%'"}},
		{"scalar subquery in WHERE", "SELECT k FROM a WHERE v = (SELECT w FROM b WHERE k = $1)", []string{"1"}, []string{"4"}},
		{"scalar subquery in the select list", "SELECT k, (SELECT w FROM b WHERE k = $1) FROM a WHERE k < 4", []string{"2"}, []string{"5"}},
		{"DOUBLE distribution key", "SELECT n FROM dk WHERE f = $1", []string{"2.5"}, []string{"7.5"}},
		{"untyped $1 = $2", "SELECT k FROM a WHERE $1 = $2 AND k < 4", []string{"1", "1"}, []string{"1", "2"}},
		{"$1 inside CASE", "SELECT k, CASE WHEN v = $1 THEN 'hit' ELSE 'miss' END FROM a WHERE k < 8", []string{"2"}, []string{"5"}},
	} {
		name := fmt.Sprintf("q%d", i)
		mustExec(t, s1, fmt.Sprintf("PREPARE %s AS %s", name, tc.sql))
		if err := s2.Prepare(name, tc.sql); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for run, args := range [][]string{tc.a, tc.b, tc.a} {
			want := multiset(mustExec(t, s1, withLiterals(tc.sql, args)))
			execute := fmt.Sprintf("EXECUTE %s (%s)", name, strings.Join(args, ", "))
			if got := multiset(mustExec(t, s1, execute)); !slices.Equal(got, want) {
				t.Errorf("%s, run %d: %s = %v, its text gives %v", tc.name, run, execute, got, want)
			}
			parsed, err := sqlparser.ParseOne(execute)
			if err != nil {
				t.Fatal(err)
			}
			vals, err := executeArgs(parsed.(*sqlparser.ExecuteStmt))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s2.ExecutePrepared(name, vals...)
			if err != nil {
				t.Fatalf("%s, run %d: ExecutePrepared: %v", tc.name, run, err)
			}
			if got := multiset(res); !slices.Equal(got, want) {
				t.Errorf("%s, run %d: ExecutePrepared%v = %v, its text gives %v", tc.name, run, vals, got, want)
			}
		}
	}
}

// TestClockSubqueryPlanIsNotStored: a scalar subquery over current_date
// is evaluated while planning, so its value is today's: the plan is
// one-shot, and after the clock moves a day the statement sees the new
// day's row, not yesterday's.
func TestClockSubqueryPlanIsNotStored(t *testing.T) {
	e, sim := newSimEngine(t, 2, nil)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE d (k INT8, day DATE) DISTRIBUTED BY (k)")
	// The engine's clock starts at 1970-01-01.
	mustExec(t, s, "INSERT INTO d VALUES (1, DATE '1970-01-01'), (2, DATE '1970-01-02'), (3, DATE '1970-01-03')")
	const sql = "SELECT k FROM d WHERE day = (SELECT max(day) FROM d WHERE day <= current_date())"
	for _, want := range []string{"1", "2", "3"} {
		for i := 0; i < 2; i++ {
			if got := rowsString(mustExec(t, s, sql)); len(got) != 1 || got[0] != want {
				t.Fatalf("on %s: %v, want %s", sim.Now().UTC().Format("2006-01-02"), got, want)
			}
		}
		sim.Advance(24 * time.Hour)
	}
}

// TestLikePlaceholderPlanIsCached: a LIKE $n plans generically like any
// other shape — stored once and then hit, its EXPLAIN printing $1 — and
// a malformed pattern argument is refused on the QD before any row is
// compared, with the statement's plan still cached.
func TestLikePlaceholderPlanIsCached(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupPreparedShapes(t, s)
	mustExec(t, s, "PREPARE l AS SELECT k FROM a WHERE s LIKE $1")
	before := e.PlanCache().Stats()
	for _, pat := range []string{"'n1%'", "'n2%'", "'%y'"} {
		mustExec(t, s, "EXECUTE l ("+pat+")")
	}
	st := e.PlanCache().Stats()
	if st.Stores-before.Stores != 1 || st.Hits-before.Hits != 2 {
		t.Fatalf("three LIKE $1 executions: %d stores, %d hits; want 1 and 2", st.Stores-before.Stores, st.Hits-before.Hits)
	}
	_, err := s.Query(`EXECUTE l ('n1\')`)
	if err == nil || !strings.Contains(err.Error(), "escape") || strings.Contains(err.Error(), "segment") {
		t.Fatalf("a pattern ending in an escape: %v, want an error naming no segment", err)
	}
	// DML binds its arguments as constants, LIKE's pattern included.
	mustExec(t, s, "PREPARE ins AS INSERT INTO b SELECT k, v FROM a WHERE s LIKE $1")
	if res := mustExec(t, s, "EXECUTE ins ('n2%')"); res.Tag != "INSERT 0 11" {
		t.Fatalf("INSERT … LIKE $1: %s", res.Tag)
	}
	mustExec(t, s, "PREPARE x AS EXPLAIN SELECT k FROM a WHERE s LIKE $1")
	if plan := strings.Join(rowsString(mustExec(t, s, "EXECUTE x ('n1%')")), "\n"); !strings.Contains(plan, "LIKE $1") {
		t.Fatalf("EXPLAIN of a prepared LIKE $1:\n%s", plan)
	}
}
