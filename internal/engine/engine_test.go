package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/cluster"
	"hawq/internal/resource"
	"hawq/internal/tx"
	"hawq/internal/types"
)

func newTestEngine(t testing.TB, segments int) *Engine {
	t.Helper()
	e, err := New(Config{Segments: segments, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func mustExec(t testing.TB, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Query(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// rowsString renders result rows compactly for comparison.
func rowsString(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	return out
}

func setupAccounts(t testing.TB, s *Session) {
	mustExec(t, s, `CREATE TABLE accounts (
		id INT8 NOT NULL, owner TEXT, balance DECIMAL(12,2), opened DATE
	) DISTRIBUTED BY (id)`)
	var values []string
	for i := 1; i <= 100; i++ {
		values = append(values, fmt.Sprintf("(%d, 'owner%d', %d.50, DATE '2013-0%d-15')",
			i, i%10, i*100, i%9+1))
	}
	mustExec(t, s, "INSERT INTO accounts VALUES "+strings.Join(values, ", "))
}

func TestCreateInsertSelectRoundTrip(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)

	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count = %v", res.Rows[0])
	}
	res = mustExec(t, s, "SELECT id, owner, balance FROM accounts WHERE id = 42")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 || res.Rows[0][1].Str() != "owner2" {
		t.Fatalf("point lookup = %v", rowsString(res))
	}
	res = mustExec(t, s, "SELECT sum(balance) FROM accounts WHERE id <= 10")
	if got := res.Rows[0][0].String(); got != "5505.00" {
		t.Fatalf("sum = %v", got)
	}
}

func TestGroupByOrderByLimit(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	setupAccounts(t, s)
	res := mustExec(t, s, `SELECT owner, count(*) AS n, sum(balance) AS total
		FROM accounts GROUP BY owner ORDER BY owner LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", rowsString(res))
	}
	if res.Rows[0][0].Str() != "owner0" || res.Rows[0][1].Int() != 10 {
		t.Fatalf("group owner0 = %v", res.Rows[0])
	}
	// ORDER BY aggregate DESC.
	res = mustExec(t, s, `SELECT owner, sum(balance) AS total FROM accounts
		GROUP BY owner ORDER BY total DESC LIMIT 1`)
	if res.Rows[0][0].Str() != "owner0" {
		t.Fatalf("top owner = %v", res.Rows[0])
	}
	// avg via two-phase aggregation.
	res = mustExec(t, s, "SELECT avg(balance) FROM accounts")
	if got := res.Rows[0][0].Float(); got < 5050 || got > 5051 {
		t.Fatalf("avg = %v", got)
	}
	// Scalar agg with no rows.
	res = mustExec(t, s, "SELECT count(*), sum(balance) FROM accounts WHERE id > 1000000")
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty agg = %v", res.Rows[0])
	}
	// Same under direct dispatch (regression: a partial scalar agg on an
	// empty segment must still contribute its zero-count row).
	res = mustExec(t, s, "SELECT count(*) FROM accounts WHERE id = -5")
	if res.Rows[0][0].IsNull() || res.Rows[0][0].Int() != 0 {
		t.Fatalf("direct-dispatch empty count = %v", res.Rows[0])
	}
}

func TestJoinsAcrossDistributions(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE dept (dept_id INT8 NOT NULL, dept_name TEXT) DISTRIBUTED BY (dept_id)")
	mustExec(t, s, "CREATE TABLE emp (emp_id INT8, dept_id INT8, salary INT8) DISTRIBUTED BY (emp_id)")
	mustExec(t, s, "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')")
	mustExec(t, s, `INSERT INTO emp VALUES
		(100, 1, 50), (101, 1, 60), (102, 2, 40), (103, 2, 45), (104, 2, 70)`)

	// Colocated join on dept_id requires redistribution of emp.
	res := mustExec(t, s, `SELECT dept_name, count(*), sum(salary)
		FROM dept, emp WHERE dept.dept_id = emp.dept_id
		GROUP BY dept_name ORDER BY dept_name`)
	want := []string{"eng|2|110", "sales|3|155"}
	got := rowsString(res)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("join = %v, want %v", got, want)
	}
	// Left outer join keeps the empty department.
	res = mustExec(t, s, `SELECT dept_name, count(emp_id) FROM dept
		LEFT JOIN emp ON dept.dept_id = emp.dept_id
		GROUP BY dept_name ORDER BY dept_name`)
	got = rowsString(res)
	if len(got) != 3 || got[0] != "empty|0" {
		t.Fatalf("left join = %v", got)
	}
	// Explicit JOIN syntax with extra ON predicate.
	res = mustExec(t, s, `SELECT emp_id FROM emp JOIN dept
		ON emp.dept_id = dept.dept_id AND dept_name = 'eng' ORDER BY emp_id`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 100 {
		t.Fatalf("join extra pred = %v", rowsString(res))
	}
	// Non-equi join (broadcast + nested loop).
	res = mustExec(t, s, `SELECT count(*) FROM emp e1, emp e2 WHERE e1.salary < e2.salary`)
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("non-equi count = %v", res.Rows[0])
	}
}

func TestSubqueries(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	setupAccounts(t, s)
	// Scalar subquery.
	res := mustExec(t, s, "SELECT count(*) FROM accounts WHERE balance > (SELECT avg(balance) FROM accounts)")
	if res.Rows[0][0].Int() != 50 {
		t.Fatalf("scalar subquery count = %v", res.Rows[0])
	}
	// IN subquery (semi join).
	mustExec(t, s, "CREATE TABLE vips (id INT8) DISTRIBUTED BY (id)")
	mustExec(t, s, "INSERT INTO vips VALUES (1), (5), (500)")
	res = mustExec(t, s, "SELECT count(*) FROM accounts WHERE id IN (SELECT id FROM vips)")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("IN subquery = %v", res.Rows[0])
	}
	res = mustExec(t, s, "SELECT count(*) FROM accounts WHERE id NOT IN (SELECT id FROM vips)")
	if res.Rows[0][0].Int() != 98 {
		t.Fatalf("NOT IN subquery = %v", res.Rows[0])
	}
	// Correlated EXISTS.
	res = mustExec(t, s, `SELECT count(*) FROM accounts a
		WHERE EXISTS (SELECT 1 FROM vips v WHERE v.id = a.id)`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("EXISTS = %v", res.Rows[0])
	}
	// Derived table.
	res = mustExec(t, s, `SELECT max(total) FROM
		(SELECT owner, sum(balance) AS total FROM accounts GROUP BY owner) q`)
	if res.Rows[0][0].IsNull() {
		t.Fatalf("derived table = %v", res.Rows[0])
	}
}

func TestDistinctAndExpressions(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	setupAccounts(t, s)
	res := mustExec(t, s, "SELECT DISTINCT owner FROM accounts ORDER BY owner")
	if len(res.Rows) != 10 {
		t.Fatalf("distinct owners = %d", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT count(DISTINCT owner) FROM accounts")
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("count distinct = %v", res.Rows[0])
	}
	// CASE, EXTRACT, date arithmetic, LIKE.
	res = mustExec(t, s, `SELECT
		CASE WHEN balance > 5000 THEN 'rich' ELSE 'modest' END AS class,
		count(*)
		FROM accounts WHERE owner LIKE 'owner%' AND opened < DATE '2013-01-01' + INTERVAL '1' YEAR
		GROUP BY CASE WHEN balance > 5000 THEN 'rich' ELSE 'modest' END
		ORDER BY class`)
	got := rowsString(res)
	if len(got) != 2 || got[0] != "modest|49" || got[1] != "rich|51" {
		t.Fatalf("case rows = %v", got)
	}
	res = mustExec(t, s, "SELECT extract(year FROM opened) AS y, count(*) FROM accounts GROUP BY extract(year FROM opened) ORDER BY y")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2013 {
		t.Fatalf("extract = %v", rowsString(res))
	}
}

// TestLikeAnswersAsPostgres: '_' matches one character of TEXT, a
// backslash escapes the character after it, a pattern may not end in a
// lone escape, and only strings take LIKE: over constants, over a column
// of a row table and of a column table, which the scan filters with the
// LIKE kernel, and over a computed operand, which it filters row by row.
func TestLikeAnswersAsPostgres(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	res := mustExec(t, s, `SELECT 'é' LIKE '_', 'aé' LIKE 'a_', 'a%b' LIKE 'a\%b', 'a_b' LIKE 'a\_b', 'axb' LIKE 'a\%b', 'axb' LIKE 'a\_b'`)
	if got := rowsString(res); len(got) != 1 || got[0] != "t|t|t|t|f|f" {
		t.Fatalf("constants: %v", got)
	}
	for _, c := range []struct{ sql, err string }{
		{`SELECT 'a' LIKE 'a\'`, "must not end with escape character"},
		{`SELECT 12 LIKE '%'`, "operator does not exist"},
		{`SELECT 12 LIKE '1%'`, "operator does not exist"},
		{`SELECT DATE '2013-01-01' LIKE '%'`, "operator does not exist"},
		{`SELECT CAST(1.5 AS DOUBLE PRECISION) NOT LIKE '%'`, "operator does not exist"},
	} {
		if _, err := s.Query(c.sql); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: %v, want %q", c.sql, err, c.err)
		}
	}
	for _, with := range []string{"", "WITH (appendonly=true, orientation=column, compresstype=quicklz)"} {
		mustExec(t, s, "DROP TABLE IF EXISTS notes")
		mustExec(t, s, "CREATE TABLE notes (k INT8, s TEXT) "+with+" DISTRIBUTED BY (k)")
		mustExec(t, s, `INSERT INTO notes VALUES (1, 'é'), (2, 'aé'), (3, 'a%b'), (4, 'a_b'), (5, 'axb'), (6, NULL), (7, 'ab')`)
		for _, c := range []struct{ where, want string }{
			{`s LIKE '_'`, "1"},
			{`s LIKE 'a_'`, "2 7"},
			{`s NOT LIKE 'a_'`, "1 3 4 5"},
			{`s LIKE 'a\%b'`, "3"},
			{`s LIKE 'a\_b'`, "4"},
			{`s LIKE 'a_b'`, "3 4 5"},
			{`s || '' LIKE 'a_'`, "2 7"},
		} {
			res := mustExec(t, s, "SELECT k FROM notes WHERE "+c.where+" ORDER BY k")
			if got := strings.Join(rowsString(res), " "); got != c.want {
				t.Errorf("%q WHERE %s: %s, want %s", with, c.where, got, c.want)
			}
		}
	}
}

func TestTransactionsCommitAbortVisibility(t *testing.T) {
	e := newTestEngine(t, 2)
	writer := e.NewSession()
	reader := e.NewSession()
	mustExec(t, writer, "CREATE TABLE t (k INT8, v TEXT) DISTRIBUTED BY (k)")
	mustExec(t, writer, "INSERT INTO t VALUES (1, 'committed')")

	// Uncommitted insert invisible to other sessions.
	mustExec(t, writer, "BEGIN")
	mustExec(t, writer, "INSERT INTO t VALUES (2, 'pending')")
	res := mustExec(t, writer, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("own tx sees %v rows", res.Rows[0])
	}
	res = mustExec(t, reader, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("reader sees %v rows before commit", res.Rows[0])
	}
	mustExec(t, writer, "COMMIT")
	res = mustExec(t, reader, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("reader sees %v rows after commit", res.Rows[0])
	}

	// Aborted insert leaves no trace; the appended bytes are truncated.
	mustExec(t, writer, "BEGIN")
	mustExec(t, writer, "INSERT INTO t VALUES (3, 'doomed')")
	mustExec(t, writer, "ROLLBACK")
	res = mustExec(t, reader, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("rolled-back insert visible: %v", res.Rows[0])
	}
	// The table remains writable and consistent after the abort.
	mustExec(t, writer, "INSERT INTO t VALUES (4, 'after')")
	res = mustExec(t, reader, "SELECT k FROM t ORDER BY k")
	if got := rowsString(res); len(got) != 3 || got[2] != "4" {
		t.Fatalf("after abort+insert: %v", got)
	}
}

func TestSerializableVsReadCommitted(t *testing.T) {
	e := newTestEngine(t, 2)
	a := e.NewSession()
	b := e.NewSession()
	mustExec(t, a, "CREATE TABLE t (k INT8) DISTRIBUTED BY (k)")
	mustExec(t, a, "INSERT INTO t VALUES (1)")

	mustExec(t, b, "BEGIN ISOLATION LEVEL SERIALIZABLE")
	res := mustExec(t, b, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("initial count wrong")
	}
	mustExec(t, a, "INSERT INTO t VALUES (2)")
	// Serializable: still sees the old snapshot.
	res = mustExec(t, b, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("serializable tx saw concurrent commit: %v", res.Rows[0])
	}
	mustExec(t, b, "COMMIT")
	// Read committed: a fresh statement sees it.
	res = mustExec(t, b, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("after commit: %v", res.Rows[0])
	}
}

func TestConcurrentInsertsSwimmingLanes(t *testing.T) {
	e := newTestEngine(t, 2)
	setup := e.NewSession()
	mustExec(t, setup, "CREATE TABLE t (k INT8) DISTRIBUTED BY (k)")

	// Two overlapping transactions insert concurrently; each gets its
	// own lane so neither blocks or corrupts the other.
	s1, s2 := e.NewSession(), e.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "INSERT INTO t VALUES (1), (2), (3)")
	mustExec(t, s2, "INSERT INTO t VALUES (10), (20)")
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "COMMIT")
	res := mustExec(t, setup, "SELECT count(*), sum(k) FROM t")
	if res.Rows[0][0].Int() != 5 || res.Rows[0][1].Int() != 36 {
		t.Fatalf("after concurrent inserts: %v", res.Rows[0])
	}
	// One committing, one aborting.
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "INSERT INTO t VALUES (100)")
	mustExec(t, s2, "INSERT INTO t VALUES (999)")
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "ROLLBACK")
	res = mustExec(t, setup, "SELECT count(*), sum(k) FROM t")
	if res.Rows[0][0].Int() != 6 || res.Rows[0][1].Int() != 136 {
		t.Fatalf("after mixed commit/abort: %v", res.Rows[0])
	}
}

func TestDDLAndCatalogQueries(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE a (x INT8) DISTRIBUTED RANDOMLY")
	mustExec(t, s, "CREATE TABLE IF NOT EXISTS a (x INT8)")
	if _, err := s.Query("CREATE TABLE a (x INT8)"); err == nil {
		t.Fatal("duplicate create accepted")
	}
	res := mustExec(t, s, "SHOW tables")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "a" {
		t.Fatalf("show tables = %v", rowsString(res))
	}
	res = mustExec(t, s, "SELECT relname FROM hawq_class WHERE relname = 'a'")
	if len(res.Rows) != 1 {
		t.Fatalf("caql select = %v", rowsString(res))
	}
	mustExec(t, s, "INSERT INTO a VALUES (1), (2), (3)")
	mustExec(t, s, "TRUNCATE TABLE a")
	res = mustExec(t, s, "SELECT count(*) FROM a")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("after truncate = %v", res.Rows[0])
	}
	mustExec(t, s, "INSERT INTO a VALUES (9)")
	res = mustExec(t, s, "SELECT count(*) FROM a")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("insert after truncate = %v", res.Rows[0])
	}
	mustExec(t, s, "DROP TABLE a")
	if _, err := s.Query("SELECT * FROM a"); err == nil {
		t.Fatal("dropped table still queryable")
	}
	mustExec(t, s, "DROP TABLE IF EXISTS a")
	res = mustExec(t, s, "SHOW segments")
	if len(res.Rows) != 2 {
		t.Fatalf("segments = %v", rowsString(res))
	}
}

func TestPartitionedTableAndElimination(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE sales (id INT8, date DATE, amt DECIMAL(10,2))
		DISTRIBUTED BY (id)
		PARTITION BY RANGE (date)
		(START (DATE '2008-01-01') INCLUSIVE
		 END (DATE '2008-07-01') EXCLUSIVE
		 EVERY (INTERVAL '1 month'))`)
	var vals []string
	for m := 1; m <= 6; m++ {
		for d := 0; d < 5; d++ {
			vals = append(vals, fmt.Sprintf("(%d, DATE '2008-0%d-1%d', %d.00)", m*10+d, m, d, m*100))
		}
	}
	mustExec(t, s, "INSERT INTO sales VALUES "+strings.Join(vals, ", "))
	res := mustExec(t, s, "SELECT count(*) FROM sales")
	if res.Rows[0][0].Int() != 30 {
		t.Fatalf("partition scan = %v", res.Rows[0])
	}
	res = mustExec(t, s, "SELECT count(*) FROM sales WHERE date >= DATE '2008-03-01' AND date < DATE '2008-04-01'")
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("partition filter = %v", res.Rows[0])
	}
	// Partition elimination visible in EXPLAIN: only 1 child scanned.
	res = mustExec(t, s, "EXPLAIN SELECT count(*) FROM sales WHERE date = DATE '2008-03-15'")
	explain := strings.Join(rowsString(res), "\n")
	if !strings.Contains(explain, "Table Scan (sales) cols=1/3 parts=1") {
		t.Fatalf("no partition elimination:\n%s", explain)
	}
	// Rows went to the right partitions (child tables are queryable).
	res = mustExec(t, s, "SELECT count(*) FROM sales_1_prt_3")
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("child partition rows = %v", res.Rows[0])
	}
	// Out-of-range insert is rejected.
	if _, err := s.Query("INSERT INTO sales VALUES (999, DATE '2009-05-05', 1.00)"); err == nil {
		t.Fatal("out-of-range partition insert accepted")
	}
}

func TestStorageFormatsThroughSQL(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	for _, tc := range []struct{ name, with string }{
		{"t_ao", "WITH (appendonly=true, orientation=row, compresstype=quicklz)"},
		{"t_co", "WITH (appendonly=true, orientation=column, compresstype=zlib, compresslevel=5)"},
		{"t_pq", "WITH (appendonly=true, orientation=parquet, compresstype=snappy)"},
	} {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT8, v TEXT) %s DISTRIBUTED BY (k)", tc.name, tc.with))
		var vals []string
		for i := 0; i < 50; i++ {
			vals = append(vals, fmt.Sprintf("(%d, 'value-%d')", i, i))
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", tc.name, strings.Join(vals, ", ")))
		res := mustExec(t, s, fmt.Sprintf("SELECT count(*), min(v), max(k) FROM %s", tc.name))
		if res.Rows[0][0].Int() != 50 || res.Rows[0][1].Str() != "value-0" || res.Rows[0][2].Int() != 49 {
			t.Fatalf("%s: %v", tc.name, res.Rows[0])
		}
	}
}

// TestMixedScaleColumnThroughSQL: literals written at several scales —
// here the second scale past entry 64 with the only NULL at entry 0 —
// are stored at the column's, so 2.5 reads back as 2.50. A DECIMAL
// column once held each value at the scale it was written with, and such
// a page turned Mixed where the second scale first showed, which read
// beyond the null bitmap being built and took the process down from the
// scan goroutine (checkDecodePage in internal/storage holds the decoder
// to Mixed pages now). Every format scans it, filters it and aggregates
// it.
func TestMixedScaleColumnThroughSQL(t *testing.T) {
	e := newTestEngine(t, 1)
	s := e.NewSession()
	for _, tc := range []struct{ name, with string }{
		{"m_ao", "WITH (appendonly=true, orientation=row)"},
		{"m_co", "WITH (appendonly=true, orientation=column, compresstype=quicklz)"},
		{"m_pq", "WITH (appendonly=true, orientation=parquet)"},
	} {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT8, d DECIMAL(12,2)) %s DISTRIBUTED BY (k)", tc.name, tc.with))
		vals := []string{"(0, NULL)"}
		for i := 1; i < 100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d.50)", i, i))
		}
		vals = append(vals, "(100, 2.5)")
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", tc.name, strings.Join(vals, ", ")))
		// Thrice: the third scan is served from the block cache.
		for pass := 0; pass < 3; pass++ {
			res := mustExec(t, s, fmt.Sprintf("SELECT count(d), sum(d), min(d), count(*) FROM %s", tc.name))
			if got := res.Rows[0].String(); got != "100|5002.00|1.50|101" {
				t.Fatalf("%s pass %d: %s", tc.name, pass, got)
			}
			res = mustExec(t, s, fmt.Sprintf("SELECT k FROM %s WHERE d < 3 ORDER BY k", tc.name))
			if got := fmt.Sprint(rowsString(res)); got != "[1 2 100]" {
				t.Fatalf("%s pass %d: d < 3 gave %s", tc.name, pass, got)
			}
			res = mustExec(t, s, fmt.Sprintf("SELECT sum(CASE WHEN k < 100 THEN d ELSE k END) FROM %s", tc.name))
			if got := res.Rows[0].String(); got != "5099.50" {
				t.Fatalf("%s pass %d: CASE sum %s", tc.name, pass, got)
			}
			res = mustExec(t, s, fmt.Sprintf("SELECT d FROM %s WHERE k = 100", tc.name))
			if got := res.Rows[0].String(); got != "2.50" {
				t.Fatalf("%s pass %d: 2.5 reads back as %s", tc.name, pass, got)
			}
		}
	}
}

// TestSignedZeroAndNaNReadBack: a DOUBLE reads back as it was written
// from every storage format. A column page tells its runs apart by the
// values' bits, so a page that starts with −0 and goes on with 0s keeps
// both, and a page of NaNs is one run of NaN.
func TestSignedZeroAndNaNReadBack(t *testing.T) {
	e := newTestEngine(t, 1)
	s := e.NewSession()
	for _, o := range []string{"row", "column", "parquet"} {
		name := "z_" + o
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT8, f DOUBLE PRECISION) WITH (appendonly=true, orientation=%s) DISTRIBUTED BY (k)", name, o))
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (1, -CAST(0.0 AS DOUBLE PRECISION)), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0), (6, '-0.0')", name))
		if got := fmt.Sprint(rowsString(mustExec(t, s, fmt.Sprintf("SELECT f FROM %s ORDER BY k", name)))); got != "[-0 0 0 0 0 -0]" {
			t.Errorf("%s: signed zeros read back as %s", o, got)
		}
		nans := strings.Repeat(", (7, 'NaN')", 8)
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", name, nans[2:]))
		if got := mustExec(t, s, fmt.Sprintf("SELECT count(*), min(f), max(f) FROM %s WHERE k = 7 AND f = CAST('NaN' AS DOUBLE PRECISION)", name)).Rows[0].String(); got != "8|NaN|NaN" {
			t.Errorf("%s: a page of NaNs reads back as %s", o, got)
		}
	}
}

// TestNumericCastsRound: a value written to a DECIMAL(p,s) column — by
// INSERT … VALUES, INSERT … SELECT or COPY — is rounded to s digits, half
// away from zero, and so is CAST … AS DECIMAL(p,s); a decimal cast to an
// integer rounds half away from zero and a DOUBLE half to even, as
// PostgreSQL's rint does.
func TestNumericCastsRound(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	for _, q := range []struct{ sql, want string }{
		{"SELECT CAST(1.239 AS DECIMAL(10,2)), CAST(-1.235 AS DECIMAL(10,2)), CAST(2.5 AS DECIMAL(10,2)), CAST(7 AS NUMERIC(5,1))", "1.24|-1.24|2.50|7.0"},
		{"SELECT CAST(1.5 AS INT), CAST(2.7 AS BIGINT), CAST(-1.5 AS INT), CAST(1.49 AS INT)", "2|3|-2|1"},
		{"SELECT CAST(CAST(1.7 AS DOUBLE PRECISION) AS INT), CAST(CAST(2.5 AS DOUBLE PRECISION) AS INT), CAST(CAST(-0.5 AS DOUBLE PRECISION) AS BIGINT)", "2|2|0"},
		{"SELECT CAST(CAST(1.005 AS DOUBLE PRECISION) AS DECIMAL(10,2))", "1.01"},
		// A literal or a string rounds once, from all its digits.
		{"SELECT CAST(0.000000005 AS DECIMAL(20,8)), CAST('0.000000005' AS DECIMAL(20,8)), CAST(-0.000000005 AS DECIMAL(20,8))", "0.00000001|0.00000001|-0.00000001"},
		{"SELECT CAST(0.123456785 AS DECIMAL(20,8)), CAST(0.0049999999 AS DECIMAL(10,2)), CAST('0.0049999999' AS DECIMAL(10,2))", "0.12345679|0.00|0.00"},
		// A bare literal past eight digits rounds at eight as the cast does.
		{"SELECT 0.123456785, -0.123456785, 0.999999995, -0.999999995", "0.12345679|-0.12345679|1.00000000|-1.00000000"},
	} {
		if got := mustExec(t, s, q.sql).Rows[0].String(); got != q.want {
			t.Errorf("%s = %s, want %s", q.sql, got, q.want)
		}
	}
	mustExec(t, s, "CREATE TABLE nr (k INT8, d DECIMAL(10,2), i INT) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO nr VALUES (1, 1.234, 1.7), (2, 2.5, 2.5), (3, -1.235, -2.5), (4, 7, 3)")
	mustExec(t, s, "INSERT INTO nr SELECT k + 10, d * 1.001, CAST(d AS DOUBLE PRECISION) FROM nr WHERE k < 4")
	if _, err := s.CopyFrom("nr", []types.Row{{types.NewInt64(20), types.NewDecimal(1235, 3), types.NewDecimal(-15, 1)}}); err != nil {
		t.Fatal(err)
	}
	want := []string{"1|1.23|2", "2|2.50|3", "3|-1.24|-3", "4|7.00|3", "11|1.23|1", "12|2.50|2", "13|-1.24|-1", "20|1.24|-2"}
	if got := rowsString(mustExec(t, s, "SELECT k, d, i FROM nr ORDER BY k")); !reflect.DeepEqual(got, want) {
		t.Errorf("stored %v, want %v", got, want)
	}

	// Scaling up that leaves int64 is an error, never a wrapped number,
	// on every way in; what fits reads back exactly. A scale above the
	// engine's eight digits keeps eight.
	mustExec(t, s, "CREATE TABLE nw (k INT8, d DECIMAL(20,8), e DECIMAL(30,12)) DISTRIBUTED BY (k)")
	for _, q := range []string{
		"SELECT CAST(100000000000 AS DECIMAL(20,8))",
		"INSERT INTO nw VALUES (1, 100000000000, 0)",
		"INSERT INTO nw VALUES (1, -100000000000.5, 0)",
		"INSERT INTO nw SELECT k, CAST(k AS DOUBLE PRECISION) * 1e11, 0 FROM nr",
	} {
		if _, err := s.Query(q); err == nil || !strings.Contains(err.Error(), "numeric field overflow") {
			t.Errorf("%s: err %v, want numeric field overflow", q, err)
		}
	}
	if _, err := s.CopyFrom("nw", []types.Row{{types.NewInt64(1), types.NewInt64(1e11), types.NewInt64(0)}}); err == nil || !strings.Contains(err.Error(), "numeric field overflow") {
		t.Errorf("COPY of 1e11 into DECIMAL(20,8): err %v, want numeric field overflow", err)
	}
	mustExec(t, s, "INSERT INTO nw VALUES (1, 92233720368, 1.5), (2, -92233720368.547758, 0.12345678), (3, 0.000000005, -0.123456785)")
	want = []string{"1|92233720368.00000000|1.50000000", "2|-92233720368.54775800|0.12345678", "3|0.00000001|-0.12345679"}
	if got := rowsString(mustExec(t, s, "SELECT k, d, e FROM nw ORDER BY k")); !reflect.DeepEqual(got, want) {
		t.Errorf("stored %v, want %v", got, want)
	}

	// Two scales of one cast are two aggregates, in a two-phase plan too.
	mustExec(t, s, "CREATE TABLE nc (k INT8, d DECIMAL(10,2)) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO nc VALUES (1, 1.25), (2, 1.21), (3, 1.24)")
	for _, q := range []struct{ sql, want string }{
		{"SELECT sum(CAST(d AS DECIMAL(10,1))), sum(CAST(d AS DECIMAL(10,2))) FROM nc", "3.7|3.70"},
		{"SELECT sum(CAST(d AS DECIMAL(10,1))), sum(CAST(d AS DECIMAL(10,2))) FROM nc WHERE k = 1", "1.3|1.25"},
		{"SELECT count(DISTINCT CAST(d AS DECIMAL(10,1))), count(DISTINCT CAST(d AS DECIMAL(10,2))) FROM nc", "2|3"},
	} {
		if got := mustExec(t, s, q.sql).Rows[0].String(); got != q.want {
			t.Errorf("%s = %s, want %s", q.sql, got, q.want)
		}
	}
}

// TestJoinKeysCompareAsValues: a join equality matches what the same
// equality matches in a WHERE clause — by value, whatever the two
// columns' kinds and scales. 7.00 joins 7 and 7.0 as hash keys (one
// normal form for the exact numerics, in the join's table and in the
// redistribute motion alike); a DOUBLE against an integer is no hash key
// at all and joins through the predicate. In memory and through the
// grace partitions, on row and on column storage.
func TestJoinKeysCompareAsValues(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	for _, tc := range []struct{ suffix, with string }{
		{"ao", "WITH (appendonly=true, orientation=row)"},
		{"co", "WITH (appendonly=true, orientation=column, compresstype=quicklz)"},
	} {
		a, b := "ja_"+tc.suffix, "jb_"+tc.suffix
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT8, d DECIMAL(10,2), f DOUBLE) %s DISTRIBUTED BY (k)", a, tc.with))
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT8, i INT4, d1 DECIMAL(10,1)) %s DISTRIBUTED BY (k)", b, tc.with))
		avals := []string{"(1, 7.00, 7.0)", "(2, 7.50, 7.5)"}
		bvals := []string{"(1, 7, 7.0)", "(2, 8, 7.5)"}
		// Rows that join nothing, so that the build side outgrows 1 kB.
		for k := 10; k < 210; k++ {
			avals = append(avals, fmt.Sprintf("(%d, %d.25, %d.25)", k, k, k))
			bvals = append(bvals, fmt.Sprintf("(%d, %d, %d.3)", k, k+1000, k))
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", a, strings.Join(avals, ", ")))
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", b, strings.Join(bvals, ", ")))
		if got := mustExec(t, s, fmt.Sprintf("SELECT count(*) FROM %s WHERE d = 7", a)).Rows[0].String(); got != "1" {
			t.Fatalf("%s: WHERE d = 7 counts %s", a, got)
		}
		for _, workMem := range []string{"64MB", "1kB"} {
			mustExec(t, s, fmt.Sprintf("SET work_mem = '%s'", workMem))
			for _, q := range []struct {
				sql, want string
				hashed    bool
			}{
				{"SELECT a.k, b.k FROM %s a, %s b WHERE a.d = b.i ORDER BY a.k", "[1|1]", true},
				{"SELECT a.k, b.k FROM %s a, %s b WHERE a.d = b.d1 ORDER BY a.k", "[1|1 2|2]", true},
				{"SELECT a.k, b.k FROM %s a, %s b WHERE a.f = b.i ORDER BY a.k", "[1|1]", false},
				// The other two ways an equality becomes a join key.
				{"SELECT a.k, b.k FROM %s a JOIN %s b ON a.f = b.i AND a.k = b.k ORDER BY a.k", "[1|1]", true},
				{"SELECT a.k FROM %s a WHERE a.f IN (SELECT i FROM %s) ORDER BY a.k", "[1]", false},
			} {
				files0, _ := resource.SpillStats()
				res := mustExec(t, s, fmt.Sprintf(q.sql, a, b))
				if got := fmt.Sprint(rowsString(res)); got != q.want {
					t.Errorf("work_mem %s: %s gave %s, want %s", workMem, fmt.Sprintf(q.sql, a, b), got, q.want)
				}
				if files1, _ := resource.SpillStats(); q.hashed && (files1 > files0) != (workMem == "1kB") {
					t.Errorf("work_mem %s: %s created %d workfiles", workMem, fmt.Sprintf(q.sql, a, b), files1-files0)
				}
			}
		}
	}
}

// TestGroupKeysCompareAsValues: GROUP BY, DISTINCT and count(DISTINCT …)
// tell values apart as a WHERE clause does — by value, not by encoding:
// 2.5, 2.50 and 2.500 are one group (a computed key, dk, makes them: a
// DECIMAL column stores every value at its own scale). Where a WHERE clause has no answer a
// grouping still has one: two NULLs are one group. Two NaNs are one
// group too, and −0.0 and 0.0 are one zero — and an equality join pairs
// NaN with NaN, as a WHERE clause does, but no NULL. On one segment and
// on two (where the partial groups meet through a redistribute motion),
// on row and on column storage, in memory and with the aggregate
// spilling.
func TestGroupKeysCompareAsValues(t *testing.T) {
	for _, segs := range []int{1, 2} {
		e := newTestEngine(t, segs)
		s := e.NewSession()
		for _, tc := range []struct{ suffix, with string }{
			{"ao", "WITH (appendonly=true, orientation=row)"},
			{"co", "WITH (appendonly=true, orientation=column, compresstype=quicklz)"},
		} {
			g := "g_" + tc.suffix
			mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT8, d DECIMAL(10,2), f DOUBLE) %s DISTRIBUTED BY (k)", g, tc.with))
			vals := []string{"(1, 2.5, 0.0)", "(2, 2.50, 0.0)", "(3, 2.500, 0.0)", "(4, 3, 1.0)", "(5, 3.0, 1.0)"}
			// Groups of one, so that the group table outgrows 1 kB.
			const singles = 200
			for k := 10; k < 10+singles; k++ {
				vals = append(vals, fmt.Sprintf("(%d, %d.25, 2.0)", k, k))
			}
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", g, strings.Join(vals, ", ")))
			if got := mustExec(t, s, fmt.Sprintf("SELECT count(*) FROM %s WHERE d = 2.5", g)).Rows[0].String(); got != "3" {
				t.Fatalf("%s: WHERE d = 2.5 counts %s", g, got)
			}
			// The same singles under a DOUBLE key, and four groups of two.
			h := "h_" + tc.suffix
			mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT8, f DOUBLE) %s DISTRIBUTED BY (k)", h, tc.with))
			fvals := []string{"(1, 'NaN')", "(2, 'NaN')", "(3, '-0.0')", "(4, 0.0)", "(5, NULL)", "(6, NULL)", "(7, 2.5)", "(8, 2.50)"}
			for k := 10; k < 10+singles; k++ {
				fvals = append(fvals, fmt.Sprintf("(%d, %d.25)", k, k))
			}
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", h, strings.Join(fvals, ", ")))
			for _, workMem := range []string{"64MB", "1kB"} {
				mustExec(t, s, fmt.Sprintf("SET work_mem = '%s'", workMem))
				where := fmt.Sprintf("%d segments, %s, work_mem %s", segs, g, workMem)
				dk := "CASE k WHEN 1 THEN 2.5 WHEN 3 THEN 2.500 WHEN 4 THEN 3 ELSE d END"
				files0, _ := resource.SpillStats()
				res := mustExec(t, s, fmt.Sprintf("SELECT %s, count(*) FROM %s GROUP BY %s", dk, g, dk))
				if files1, _ := resource.SpillStats(); (files1 > files0) != (workMem == "1kB") {
					t.Errorf("%s: GROUP BY dk created %d workfiles", where, files1-files0)
				}
				if len(res.Rows) != 2+singles {
					t.Errorf("%s: GROUP BY dk gave %d groups, want %d", where, len(res.Rows), 2+singles)
				}
				for _, want := range []struct {
					d types.Datum
					n int64
				}{{types.NewDecimal(25, 1), 3}, {types.NewInt64(3), 2}} {
					found := 0
					for _, row := range res.Rows {
						if types.Compare(row[0], want.d) == 0 {
							found++
							if row[1].Int() != want.n {
								t.Errorf("%s: group %v counts %d, want %d", where, row[0], row[1].Int(), want.n)
							}
						}
					}
					if found != 1 {
						t.Errorf("%s: %d groups for d = %v", where, found, want.d)
					}
				}
				// Arms of two kinds no one kind holds are refused, as in
				// PostgreSQL, before any key is made.
				mixed := "CASE WHEN k < 3 THEN 'x' ELSE 2 END"
				if _, err := s.Query(fmt.Sprintf("SELECT %s, count(*) FROM %s GROUP BY %s", mixed, g, mixed)); err == nil ||
					!strings.Contains(err.Error(), "CASE types TEXT and BIGINT cannot be matched") {
					t.Errorf("%s: GROUP BY a CASE of TEXT and INT arms: err %v", where, err)
				}
				if got := len(mustExec(t, s, fmt.Sprintf("SELECT DISTINCT %s FROM %s", dk, g)).Rows); got != 2+singles {
					t.Errorf("%s: SELECT DISTINCT dk gave %d rows, want %d", where, got, 2+singles)
				}
				if got := len(mustExec(t, s, fmt.Sprintf("SELECT DISTINCT %s, f FROM %s WHERE k < 10", dk, g)).Rows); got != 2 {
					t.Errorf("%s: SELECT DISTINCT dk, f over the five rows gave %d, want 2", where, got)
				}
				if got := mustExec(t, s, fmt.Sprintf("SELECT count(DISTINCT %s) FROM %s", dk, g)).Rows[0][0].Int(); got != 2+singles {
					t.Errorf("%s: count(DISTINCT dk) is %d, want %d", where, got, 2+singles)
				}

				where = fmt.Sprintf("%d segments, %s, work_mem %s", segs, h, workMem)
				files0, _ = resource.SpillStats()
				res = mustExec(t, s, fmt.Sprintf("SELECT f, count(*) FROM %s GROUP BY f", h))
				if files1, _ := resource.SpillStats(); (files1 > files0) != (workMem == "1kB") {
					t.Errorf("%s: GROUP BY f created %d workfiles", where, files1-files0)
				}
				pairs := map[string]int{}
				for _, row := range res.Rows {
					if row[1].Int() == 2 {
						// The zero shows as whichever of the two came first.
						pairs[strings.TrimPrefix(row[0].String(), "-")]++
					}
				}
				if want := map[string]int{"NaN": 1, "NULL": 1, "0": 1, "2.5": 1}; len(res.Rows) != 4+singles || !reflect.DeepEqual(pairs, want) {
					t.Errorf("%s: GROUP BY f gave %d groups, those of two rows %v, want %d and %v", where, len(res.Rows), pairs, 4+singles, want)
				}
				if got := len(mustExec(t, s, fmt.Sprintf("SELECT DISTINCT f FROM %s", h)).Rows); got != 4+singles {
					t.Errorf("%s: SELECT DISTINCT f gave %d rows, want %d", where, got, 4+singles)
				}
				if got := mustExec(t, s, fmt.Sprintf("SELECT count(DISTINCT f) FROM %s", h)).Rows[0][0].Int(); got != 3+singles {
					t.Errorf("%s: count(DISTINCT f) is %d, want %d (NULL counts for nothing)", where, got, 3+singles)
				}
				// NaN, zero and 2.5 pair up two by two, every single with
				// itself.
				if got := mustExec(t, s, fmt.Sprintf("SELECT count(*) FROM %s a, %s b WHERE a.f = b.f", h, h)).Rows[0][0].Int(); got != 12+singles {
					t.Errorf("%s: a.f = b.f joins %d pairs, want %d", where, got, 12+singles)
				}
			}
		}
	}
}

// TestNaNOrdersAsPostgres: a DOUBLE NaN equals NaN and is greater than
// every other number (PostgreSQL's float8_cmp_internal), in a WHERE
// clause's kernels and its row path, IN and BETWEEN, min and max, a zone
// map's page bounds, and an equality join, hashed or nested. On row,
// column and Parquet storage, on one segment and on four.
func TestNaNOrdersAsPostgres(t *testing.T) {
	for _, segs := range []int{1, 4} {
		e := newTestEngine(t, segs)
		s := e.NewSession()
		for _, tc := range []struct{ name, with string }{
			{"nan_ao", "WITH (appendonly=true, orientation=row)"},
			{"nan_co", "WITH (appendonly=true, orientation=column, compresstype=quicklz)"},
			{"nan_pq", "WITH (appendonly=true, orientation=parquet)"},
		} {
			mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT, d DOUBLE PRECISION) %s DISTRIBUTED BY (k)", tc.name, tc.with))
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (1, 'NaN'), (2, 1.5), (3, 2.5), (4, NULL)", tc.name))
			where := fmt.Sprintf("%d segments, %s", segs, tc.name)
			for _, q := range []struct{ sql, want string }{
				{"SELECT k FROM %s WHERE d = 1.5 ORDER BY k", "[2]"},
				{"SELECT k FROM %s WHERE d IN (1.5) ORDER BY k", "[2]"},
				{"SELECT k FROM %s WHERE d BETWEEN 1.0 AND 2.0 ORDER BY k", "[2]"},
				{"SELECT k FROM %s WHERE d <> 1.5 ORDER BY k", "[1 3]"},
				{"SELECT max(d), min(d) FROM %s", "[NaN|1.5]"},
				// The page that holds the NaN may match d > c for any c.
				{"SELECT k FROM %s WHERE d > 3.0 ORDER BY k", "[1]"},
				{"SELECT k FROM %s WHERE d > 1.0e300 ORDER BY k", "[1]"},
				{"SELECT k FROM %s WHERE d = CAST('NaN' AS DOUBLE PRECISION) ORDER BY k", "[1]"},
				// NULL sorts first here, NaN after every number.
				{"SELECT k FROM %s ORDER BY d, k", "[4 2 3 1]"},
			} {
				sql := fmt.Sprintf(q.sql, tc.name)
				if got := fmt.Sprint(rowsString(mustExec(t, s, sql))); got != q.want {
					t.Errorf("%s: %s gave %s, want %s", where, sql, got, q.want)
				}
			}
			// NaN joins NaN, hashed and nested alike.
			for _, j := range []struct{ pred, op string }{
				{"a.d = b.d", "Hash Join"},
				{"a.d <= b.d AND a.d >= b.d", "Nested Loop"},
			} {
				sql := fmt.Sprintf("SELECT count(*) FROM %s a, %s b WHERE %s", tc.name, tc.name, j.pred)
				plan := strings.Join(rowsString(mustExec(t, s, "EXPLAIN "+sql)), "\n")
				if !strings.Contains(plan, j.op) {
					t.Fatalf("%s: %s does not plan a %s:\n%s", where, sql, j.op, plan)
				}
				if got := mustExec(t, s, sql).Rows[0][0].Int(); got != 3 {
					t.Errorf("%s: %s counts %d, want 3", where, sql, got)
				}
			}
		}
		// A NaN computed in SQL has other bits than a parsed 'NaN' (on
		// amd64 Inf-Inf is 0xFFF8…); both are placed, and found, as one.
		mustExec(t, s, "CREATE TABLE nan_inf (d DOUBLE PRECISION) DISTRIBUTED BY (d)")
		mustExec(t, s, "INSERT INTO nan_inf SELECT CAST('Infinity' AS DOUBLE PRECISION) - CAST('Infinity' AS DOUBLE PRECISION)")
		for _, q := range []struct {
			sql, op string
			want    int64
		}{
			{"SELECT count(*) FROM nan_inf WHERE d = CAST('NaN' AS DOUBLE PRECISION)", "", 1},
			{"SELECT count(*) FROM nan_ao a, nan_inf b WHERE a.d = b.d", "Redistribute", 1},
		} {
			if q.op != "" && segs > 1 {
				plan := strings.Join(rowsString(mustExec(t, s, "EXPLAIN "+q.sql)), "\n")
				if !strings.Contains(plan, q.op) {
					t.Fatalf("%d segments: %s has no %s motion:\n%s", segs, q.sql, q.op, plan)
				}
			}
			if got := mustExec(t, s, q.sql).Rows[0][0].Int(); got != q.want {
				t.Errorf("%d segments: %s counts %d, want %d", segs, q.sql, got, q.want)
			}
		}
	}
}

func TestInsertSelectBetweenTables(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	setupAccounts(t, s)
	mustExec(t, s, `CREATE TABLE rich (id INT8, balance DECIMAL(12,2)) DISTRIBUTED BY (id)`)
	res := mustExec(t, s, "INSERT INTO rich SELECT id, balance FROM accounts WHERE balance > 5000")
	if res.Affected != 51 {
		t.Fatalf("insert-select affected = %d", res.Affected)
	}
	res = mustExec(t, s, "SELECT count(*) FROM rich")
	if res.Rows[0][0].Int() != 51 {
		t.Fatalf("rich count = %v", res.Rows[0])
	}
}

// TestAnalyzeImprovesStats: an internal table's statistics are written
// with its data, so there is nothing left for ANALYZE to improve: they
// are right before it runs, and it changes nothing and stores no row
// count.
func TestAnalyzeImprovesStats(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)
	before := colStats(t, e, "accounts")
	if len(before) != 4 || before[1].NDistinct != 10 {
		t.Fatalf("col stats after the load = %+v", before)
	}
	mustExec(t, s, "ANALYZE accounts")
	mustExec(t, s, "ANALYZE")
	if after := colStats(t, e, "accounts"); !reflect.DeepEqual(after, before) {
		t.Errorf("ANALYZE changed the statistics:\n%+v\nwant %+v", after, before)
	}
	tr := e.cl.TxMgr.Begin(0)
	defer tr.Commit()
	desc, err := e.cl.Cat().LookupTable(tr.Snapshot(), "accounts")
	if err != nil {
		t.Fatal(err)
	}
	if rs, ok := e.cl.Cat().RelStatsFor(tr.Snapshot(), desc.OID); ok {
		t.Errorf("ANALYZE of an internal table stored a row count: %+v", rs)
	}
}

// colStats returns the column statistics the planner reads for table.
func colStats(t testing.TB, e *Engine, table string) []catalog.ColStats {
	t.Helper()
	tr := e.cl.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Abort()
	desc, err := e.cl.Cat().LookupTable(tr.Snapshot(), table)
	if err != nil {
		t.Fatal(err)
	}
	return e.cl.Cat().ColStatsOf(tr.Snapshot(), []int64{desc.OID})[desc.OID]
}

// TestAnalyzeOneStatementPerTable: the statistics the planner reads
// after one ANALYZE of every table are the aggregates the former
// per-table statement computed — min, max and NULL share exactly, the
// distinct count within two of the sketch's standard errors (1.04/√1024,
// 3.3 %) — on every storage format and
// for a partitioned table and its partitions, NULLs and an all-NULL
// column included.
func TestAnalyzeOneStatementPerTable(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	tables := []string{"an_ao", "an_co", "an_pq"}
	for i, with := range []string{
		"WITH (appendonly=true, orientation=row, compresstype=quicklz)",
		"WITH (appendonly=true, orientation=column, compresstype=quicklz)",
		"WITH (appendonly=true, orientation=parquet)",
	} {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k INT8, v TEXT, d DATE, amt DECIMAL(10,2), void TEXT) %s DISTRIBUTED BY (k)", tables[i], with))
	}
	mustExec(t, s, `CREATE TABLE an_part (k INT8, d DATE, amt DECIMAL(10,2))
		DISTRIBUTED BY (k) PARTITION BY RANGE (d)
		(START (DATE '2008-01-01') INCLUSIVE END (DATE '2008-04-01') EXCLUSIVE EVERY (INTERVAL '1 month'))`)
	var vals, parts []string
	for i := 0; i < 300; i++ {
		v := fmt.Sprintf("'v%d'", i%17)
		if i%11 == 0 {
			v = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%d, %s, DATE '2008-0%d-1%d', %d.25, NULL)", i%40, v, i%3+1, i%9, i))
		parts = append(parts, fmt.Sprintf("(%d, DATE '2008-0%d-1%d', %d.50)", i, i%3+1, i%9, i%7))
	}
	for _, name := range tables {
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(vals, ", ")))
	}
	mustExec(t, s, "INSERT INTO an_part VALUES "+strings.Join(parts, ", "))
	mustExec(t, s, "ANALYZE")

	for _, name := range append(tables, "an_part", "an_part_1_prt_1", "an_part_1_prt_2", "an_part_1_prt_3") {
		stats := colStats(t, e, name)
		rows := mustExec(t, s, "SELECT count(*) FROM "+name).Rows[0][0].Int()
		cols := []string{"k", "v", "d", "amt", "void"}
		if strings.HasPrefix(name, "an_part") {
			cols = []string{"k", "d", "amt"}
		}
		for i, col := range cols {
			r := mustExec(t, s, fmt.Sprintf("SELECT min(%[1]s), max(%[1]s), count(DISTINCT %[1]s), count(%[1]s) FROM %[2]s", col, name)).Rows[0]
			if i >= len(stats) {
				t.Fatalf("%s: statistics of %d columns", name, len(stats))
			}
			got := stats[i]
			want := fmt.Sprintf("min %v max %v nullfrac %.6f", r[0], r[1], 1-float64(r[3].Int())/float64(rows))
			if have := fmt.Sprintf("min %v max %v nullfrac %.6f", got.Min, got.Max, got.NullFrac); have != want {
				t.Errorf("%s.%s: written %q, the aggregates say %q", name, col, have, want)
			}
			if exact := float64(r[2].Int()); math.Abs(got.NDistinct-exact) > max(1, 0.066*exact) {
				t.Errorf("%s.%s: %v distinct values written, count(DISTINCT) says %v", name, col, got.NDistinct, exact)
			}
		}
	}
}

func TestExplainShowsSlices(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)
	res := mustExec(t, s, "EXPLAIN SELECT owner, count(*) FROM accounts GROUP BY owner")
	out := strings.Join(rowsString(res), "\n")
	for _, want := range []string{"Slice 0 (QD)", "Gather Motion", "HashAggregate", "Table Scan (accounts)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestSegmentFailureFailoverAndRecovery(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	setupAccounts(t, s)

	// Kill a segment mid-flight: the next query fails over and restarts.
	e.cl.Segment(1).Kill()
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after failover = %v", res.Rows[0])
	}
	// The fault detector marked it down in the catalog.
	res = mustExec(t, s, "SHOW segments")
	downs := 0
	for _, r := range res.Rows {
		if r[2].Str() == "down" {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("segments down = %d, want 1", downs)
	}
	// Recovery brings it back.
	if err := e.cl.Recover(1); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after recovery = %v", res.Rows[0])
	}
	// Inserts still work after recovery.
	mustExec(t, s, "INSERT INTO accounts VALUES (101, 'owner1', 1.00, DATE '2013-01-01')")
	res = mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 101 {
		t.Fatalf("count after insert = %v", res.Rows[0])
	}
}

func TestStandbyMasterFailover(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	sb := e.cl.StartStandby()
	setupAccounts(t, s)
	// Standby replicated the DDL via log shipping.
	tr := e.cl.TxMgr.Begin(0)
	if _, err := sb.Cat.LookupTable(tr.Snapshot(), "accounts"); err != nil {
		t.Fatalf("standby missing table: %v", err)
	}
	tr.Commit()
	// Promote and keep serving queries.
	e.cl.Promote()
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after promote = %v", res.Rows[0])
	}
}

// TestStandbyAttachesWhileSessionsCommit: a standby attached while other
// sessions create tables and commit inserts is shipped every record in
// LSN order from its subscription on — no gap — and ends holding the
// primary's tables and their files.
func TestStandbyAttachesWhileSessionsCommit(t *testing.T) {
	e := newTestEngine(t, 2)
	const writers, rounds = 4, 20
	var wg sync.WaitGroup
	var once sync.Once
	running := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer once.Do(func() { close(running) })
			s := e.NewSession()
			for j := 0; j < rounds; j++ {
				name := fmt.Sprintf("w%d_%d", i, j)
				for _, sql := range []string{
					fmt.Sprintf("CREATE TABLE %s (k INT8) DISTRIBUTED BY (k)", name),
					fmt.Sprintf("INSERT INTO %s VALUES (%d), (%d)", name, i, j),
				} {
					if _, err := s.Query(sql); err != nil {
						t.Error(err)
						return
					}
				}
				if j == 1 {
					once.Do(func() { close(running) })
				}
			}
		}()
	}
	<-running
	sb := e.cl.StartStandby()
	wg.Wait()
	if err := sb.Err(); err != nil {
		t.Fatal(err)
	}
	if last, next := sb.LastLSN(), e.cl.WAL().NextLSN(); last != next-1 {
		t.Errorf("standby applied up to LSN %d, the primary logged up to %d", last, next-1)
	}
	tr := e.cl.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Abort()
	snap := tr.Snapshot()
	files := func(c *catalog.Catalog) map[string]int {
		out := map[string]int{}
		for _, d := range c.ListTables(snap) {
			out[d.Name] = len(c.AllSegFiles(snap, d.OID))
		}
		return out
	}
	primary, standby := files(e.cl.Cat()), files(sb.Cat)
	if len(primary) != writers*rounds || !reflect.DeepEqual(standby, primary) {
		t.Errorf("standby tables and files %v\nprimary %v", standby, primary)
	}
}

func TestMasterOnlyQueries(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	res := mustExec(t, s, "SELECT 1 + 2, 'x' || 'y'")
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].Str() != "xy" {
		t.Fatalf("master-only = %v", res.Rows[0])
	}
}

func TestDirectDispatchInExplain(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	setupAccounts(t, s)
	res := mustExec(t, s, "EXPLAIN SELECT * FROM accounts WHERE id = 7")
	out := strings.Join(rowsString(res), "\n")
	if !strings.Contains(out, "segments [") {
		t.Fatalf("no direct dispatch in plan:\n%s", out)
	}
}

func TestErrorsSurfaceCleanly(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	for _, bad := range []string{
		"SELECT * FROM missing",
		"SELECT nocolumn FROM hawq_class",
		"INSERT INTO missing VALUES (1)",
		"SELECT a FROM (SELECT 1 AS b) q WHERE a > 0 GROUP",
		"UPDATE usertab SET x = 1",
	} {
		if _, err := s.Query(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
	// The session recovers after errors.
	mustExec(t, s, "SELECT 1")
}

func TestRandomDistribution(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (k INT8, v INT8) DISTRIBUTED RANDOMLY")
	var vals []string
	for i := 0; i < 100; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i))
	}
	mustExec(t, s, "INSERT INTO r VALUES "+strings.Join(vals, ", "))
	res := mustExec(t, s, "SELECT count(*), sum(k) FROM r")
	if res.Rows[0][0].Int() != 100 || res.Rows[0][1].Int() != 4950 {
		t.Fatalf("random dist = %v", res.Rows[0])
	}
	// Join random with hash: forces redistribution.
	mustExec(t, s, "CREATE TABLE h (k INT8, w TEXT) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO h VALUES (1, 'one'), (2, 'two')")
	res = mustExec(t, s, "SELECT w, v FROM r, h WHERE r.k = h.k ORDER BY w")
	got := rowsString(res)
	if len(got) != 2 || got[0] != "one|1" || got[1] != "two|2" {
		t.Fatalf("random-hash join = %v", got)
	}
	rows := cluster.LanePath(1, 2, 3)
	if rows != "/hawq/data/1/2/3" {
		t.Fatalf("lane path = %s", rows)
	}
}

func TestSQLLevelDeadlockDetection(t *testing.T) {
	e := newTestEngine(t, 2)
	setup := e.NewSession()
	mustExec(t, setup, "CREATE TABLE d1 (k INT8) DISTRIBUTED BY (k)")
	mustExec(t, setup, "CREATE TABLE d2 (k INT8) DISTRIBUTED BY (k)")

	s1, s2 := e.NewSession(), e.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "INSERT INTO d1 VALUES (1)") // RowExclusive on d1
	mustExec(t, s2, "INSERT INTO d2 VALUES (2)") // RowExclusive on d2

	// s1 wants d2 exclusively, s2 wants d1 exclusively: a cycle. The
	// deadlock detector must abort one of them (§5.2).
	errs := make(chan error, 2)
	go func() { _, err := s1.Query("TRUNCATE TABLE d2"); errs <- err }()
	go func() { _, err := s2.Query("TRUNCATE TABLE d1"); errs <- err }()
	var failures int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				failures++
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock not detected")
		}
	}
	if failures != 1 {
		t.Fatalf("deadlock victims = %d, want exactly 1", failures)
	}
	// Both sessions recover.
	mustExec(t, s1, "ROLLBACK")
	mustExec(t, s2, "ROLLBACK")
	mustExec(t, setup, "SELECT count(*) FROM d1")
}

func TestConcurrentSessionsStress(t *testing.T) {
	e := newTestEngine(t, 2)
	setup := e.NewSession()
	mustExec(t, setup, "CREATE TABLE st (k INT8, v INT8) DISTRIBUTED BY (k)")
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for i := 0; i < 5; i++ {
				if _, err := s.Query(fmt.Sprintf("INSERT INTO st VALUES (%d, %d)", w*100+i, i)); err != nil {
					errCh <- err
					return
				}
				if _, err := s.Query("SELECT count(*), sum(v) FROM st"); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	res := mustExec(t, setup, "SELECT count(*) FROM st")
	if res.Rows[0][0].Int() != 20 {
		t.Fatalf("rows = %v", res.Rows[0])
	}
}

// TestVacuumReclaimsDeadCatalogVersions: INSERTs reclaim the dead
// hawq_aoseg versions they leave as they go, VACUUM reclaims the rest,
// and a long-running snapshot holds both back from what it can see.
func TestVacuumReclaimsDeadCatalogVersions(t *testing.T) {
	const segments = 2
	e := newTestEngine(t, segments)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE v (k INT8) DISTRIBUTED BY (k)")
	// Each insert MVCC-updates the segment-file rows; the writes reclaim
	// the dead versions once the stored ones have doubled.
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO v VALUES (%d)", i))
	}
	if stored, live := segFileVersions(t, e); stored > 2*(live+segments) {
		t.Fatalf("%d stored versions for %d live after ten inserts", stored, live)
	}
	mustExec(t, s, "VACUUM")
	if stored, live := segFileVersions(t, e); stored != live {
		t.Fatalf("VACUUM left %d stored versions for %d live", stored, live)
	}
	// Data untouched.
	res := mustExec(t, s, "SELECT count(*), sum(k) FROM v")
	if res.Rows[0][0].Int() != 10 || res.Rows[0][1].Int() != 45 {
		t.Fatalf("after vacuum: %v", res.Rows[0])
	}
	// A long-running snapshot holds the horizon back.
	old := e.NewSession()
	mustExec(t, old, "BEGIN ISOLATION LEVEL SERIALIZABLE")
	mustExec(t, old, "SELECT count(*) FROM v")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO v VALUES (%d)", 100+i))
	}
	mustExec(t, s, "VACUUM")
	res = mustExec(t, old, "SELECT count(*) FROM v")
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("old snapshot sees %v rows after vacuum, want 10", res.Rows[0])
	}
	mustExec(t, old, "COMMIT")
	if res := mustExec(t, s, "VACUUM"); res.Affected == 0 {
		t.Fatal("vacuum reclaimed nothing once the old snapshot ended")
	}
	if stored, live := segFileVersions(t, e); stored != live {
		t.Fatalf("VACUUM left %d stored versions for %d live", stored, live)
	}
}

// slowCrossJoin is a nested-loop cross join large enough (~10^8 pairs)
// that cancellation always wins the race against completion.
const slowCrossJoin = `SELECT count(*) FROM accounts a, accounts b, accounts c, accounts d
	WHERE a.balance < b.balance`

func TestStatementTimeout(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)

	mustExec(t, s, "SET statement_timeout = 1")
	_, err := s.Query(slowCrossJoin)
	if !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("err = %v, want statement timeout", err)
	}
	// Disabling the timeout restores normal execution.
	mustExec(t, s, "SET statement_timeout = 0")
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after timeout = %v", res.Rows[0])
	}
}

func TestParseTimeoutForms(t *testing.T) {
	for _, c := range []struct {
		in   string
		want time.Duration
	}{{"0", 0}, {"250", 250 * time.Millisecond}, {"1s", time.Second}, {"50ms", 50 * time.Millisecond}} {
		got, err := parseTimeout(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseTimeout(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"-1", "-5ms", "soon"} {
		if _, err := parseTimeout(bad); err == nil {
			t.Errorf("parseTimeout(%q) succeeded, want error", bad)
		}
	}
}

func TestSessionCancel(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	setupAccounts(t, s)

	gets0, puts0 := types.PoolStats()
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Query(slowCrossJoin)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	s.Cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrQueryCanceled) {
			t.Fatalf("err = %v, want query canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled query did not return")
	}
	// Every pooled batch the torn-down pipeline took out came back.
	gets1, puts1 := types.PoolStats()
	if held0, held1 := gets0-puts0, gets1-puts1; held1 != held0 {
		t.Fatalf("batch pool imbalance: %d batches held before, %d after", held0, held1)
	}
	// The session survives and runs the next query normally.
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after cancel = %v", res.Rows[0])
	}
}

func TestCancelIdleSessionIsNoop(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	s.Cancel()
	setupAccounts(t, s)
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count = %v", res.Rows[0])
	}
}

func TestInsertAbortsCleanlyOnSegmentFailure(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	setupAccounts(t, s)

	// Kill a segment, then run an INSERT whose scan slice needs it. DML
	// is not restarted: the statement aborts cleanly, the fault detector
	// marks the segment down, and the lane rollback truncates any
	// partially appended bytes (§5.3).
	e.cl.Segment(1).Kill()
	_, err := s.Query("INSERT INTO accounts SELECT id + 1000, owner, balance, opened FROM accounts")
	if err == nil || !strings.Contains(err.Error(), "segment failure during DML") {
		t.Fatalf("insert error = %v, want clean DML abort", err)
	}
	// Nothing of the failed insert is visible; reads fail over.
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after aborted insert = %v", res.Rows[0])
	}
	// The next DML succeeds on the failed-over endpoints.
	mustExec(t, s, "INSERT INTO accounts SELECT id + 2000, owner, balance, opened FROM accounts")
	res = mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 200 {
		t.Fatalf("count after retry insert = %v", res.Rows[0])
	}
}

func TestRepeatedFailuresBlacklistSegment(t *testing.T) {
	e := newTestEngine(t, 3)
	s := e.NewSession()
	setupAccounts(t, s)

	// First failure: immediate failover.
	e.cl.Segment(1).Kill()
	mustExec(t, s, "SELECT count(*) FROM accounts")
	if err := e.cl.Recover(1); err != nil {
		t.Fatal(err)
	}
	// Second failure: the blacklist delays the re-probe, but the
	// session's bounded restart loop outlasts the backoff.
	e.cl.Segment(1).Kill()
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after second failure = %v", res.Rows[0])
	}
}
