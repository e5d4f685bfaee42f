package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"hawq/internal/engine"
	"hawq/internal/hdfs"
	"hawq/internal/stinger"
	"hawq/internal/types"
)

// wellTyped is one statement of TestWellTypedOrRefused: want is either
// "!" and a substring of the refusal, made on the QD, or the rows PostgreSQL
// answers, each rendered by types.Row.String and joined by "; ". kind,
// when set, is the kind of every cell of the first column. {t} names
// the accounts table. A row without FROM runs on HAWQ alone.
type wellTyped struct {
	sql, want string
	kind      types.Kind
}

var wellTypedRows = []wellTyped{
	// Each of these ended the process from a QE.
	{sql: "SELECT id FROM {t} WHERE owner + 1 = 2", want: "!operator does not exist: TEXT + BIGINT"},
	{sql: "SELECT sum(owner) FROM {t}", want: "!function sum(TEXT) does not exist"},
	{sql: "SELECT avg(opened) FROM {t}", want: "!function avg(DATE) does not exist"},
	{sql: "SELECT -owner FROM {t} WHERE id = 1", want: "!operator does not exist: - TEXT"},
	// Each of these answered wrongly.
	{sql: "SELECT 5 + INTERVAL '3 day' FROM {t} WHERE id = 1", want: "!operator does not exist: BIGINT + INTERVAL"},
	{sql: "SELECT extract(year from 5) FROM {t} WHERE id = 1", want: "!function extract_year(BIGINT) does not exist"},
	{sql: "SELECT length(DATE '2014-01-02') FROM {t} WHERE id = 1", want: "!function length(DATE) does not exist"},
	{sql: "SELECT round('x', 1) FROM {t} WHERE id = 1", want: "!function round(TEXT, BIGINT) does not exist"},
	{sql: "SELECT upper(5) FROM {t} WHERE id = 1", want: "!function upper(BIGINT) does not exist"},
	{sql: "SELECT substring(12345, 2, 2) FROM {t} WHERE id = 1", want: "!function substring(BIGINT, BIGINT, BIGINT) does not exist"},
	{sql: "SELECT coalesce(1, 'a') FROM {t} WHERE id = 1", want: "!COALESCE types BIGINT and TEXT cannot be matched"},
	{sql: "SELECT CASE WHEN id = 1 THEN 'a' ELSE 5 END FROM {t}", want: "!CASE types TEXT and BIGINT cannot be matched"},
	// Each of these ran, and PostgreSQL refuses it.
	{sql: "SELECT NOT 5 FROM {t} WHERE id = 1", want: "!argument of NOT must be type boolean, not type BIGINT"},
	{sql: "SELECT 1 AND 2 FROM {t} WHERE id = 1", want: "!argument of AND must be type boolean, not type BIGINT"},
	{sql: "SELECT CASE WHEN 1 THEN 2 END FROM {t} WHERE id = 1", want: "!argument of CASE/WHEN must be type boolean, not type BIGINT"},
	{sql: "SELECT id FROM {t} WHERE 5", want: "!argument of WHERE must be type boolean, not type BIGINT"},
	{sql: "SELECT 1 WHERE 5", want: "!argument of WHERE must be type boolean, not type BIGINT"},
	{sql: "SELECT 1 WHERE 1 = 2", want: ""},
	{sql: "SELECT owner, count(*) FROM {t} GROUP BY owner HAVING count(*)", want: "!argument of HAVING must be type boolean, not type BIGINT"},
	{sql: "SELECT a.id FROM {t} a JOIN {t} b ON a.id = b.id AND a.id + 1 WHERE a.id = 1", want: "!argument of JOIN/ON must be type boolean, not type BIGINT"},
	{sql: "SELECT sum(opened) FROM {t}", want: "!function sum(DATE) does not exist"},
	// A catalog table is read by CaQL on the master, through the same table.
	{sql: "SELECT relname FROM hawq_class WHERE relname + 1 = 2", want: "!operator does not exist: TEXT + BIGINT"},
	{sql: "SELECT relname FROM hawq_class WHERE 5", want: "!argument of WHERE must be type boolean, not type BIGINT"},
	{sql: "SELECT extract(year from 'abc') FROM {t} WHERE id = 1", want: `!invalid date "abc"`},
	// Answers, each of one kind.
	{sql: "SELECT CASE WHEN id < 3 THEN 1 ELSE 2.5 END FROM {t} WHERE id <= 4 ORDER BY id", want: "1; 1; 2.5; 2.5", kind: types.KindDecimal},
	{sql: "SELECT coalesce(id, 2.5) FROM {t} WHERE id <= 2 ORDER BY id", want: "1; 2", kind: types.KindDecimal},
	{sql: "SELECT opened + 1 FROM {t} WHERE id = 1", want: "2013-02-16", kind: types.KindDate},
	{sql: "SELECT opened - DATE '2013-01-01' FROM {t} WHERE id = 1", want: "45", kind: types.KindInt64},
	{sql: "SELECT opened - INTERVAL '1' MONTH FROM {t} WHERE id = 1", want: "2013-01-15", kind: types.KindDate},
	{sql: "SELECT id FROM {t} WHERE opened = '2013-02-15' AND balance < 200 ORDER BY id", want: "1", kind: types.KindInt64},
	{sql: "SELECT sum(balance), avg(id) FROM {t} WHERE id <= 2", want: "301.00|1.5", kind: types.KindDecimal},
}

// wellTypedParams are statements of the table in a $n form: args are
// what the client sends.
var wellTypedParams = []struct {
	wellTyped
	args []types.Datum
}{
	{wellTyped{sql: "SELECT upper($1) FROM {t} WHERE id = 1", want: "ABC", kind: types.KindString}, []types.Datum{types.NewString("abc")}},
	{wellTyped{sql: "SELECT $1 + INTERVAL '3 day' FROM {t} WHERE id = 1", want: "2014-01-05", kind: types.KindDate}, []types.Datum{types.NewString("2014-01-02")}},
	{wellTyped{sql: "SELECT id FROM {t} WHERE owner + $1 = 2", want: "!operator does not exist: TEXT + "}, []types.Datum{types.NewInt64(1)}},
	{wellTyped{sql: "SELECT id FROM {t} WHERE $1 ORDER BY id LIMIT 1", want: "1"}, []types.Datum{types.NewBool(true)}},
	// Nothing types either placeholder but the output: TEXT, as in PostgreSQL.
	{wellTyped{sql: "SELECT coalesce($1, $2) FROM {t} WHERE id = 1", want: "1", kind: types.KindString}, []types.Datum{types.NewInt64(1), types.NewString("a")}},
	{wellTyped{sql: "SELECT CASE WHEN id = 1 THEN $1 END FROM {t} WHERE id = 1", want: "5", kind: types.KindString}, []types.Datum{types.NewInt64(5)}},
}

// check compares one statement's outcome with w.
func (w wellTyped) check(t *testing.T, where string, schema *types.Schema, rows []types.Row, err error) {
	t.Helper()
	if refusal, refused := strings.CutPrefix(w.want, "!"); refused {
		if err == nil || !strings.Contains(err.Error(), refusal) || strings.Contains(err.Error(), "segment") {
			t.Errorf("%s: %s: err %v, want %q naming no segment", where, w.sql, err, refusal)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: %s: %v", where, w.sql, err)
		return
	}
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = r.String()
		if w.kind != types.KindNull && (r[0].K != w.kind || schema.Columns[0].Kind != w.kind) {
			t.Errorf("%s: %s: row %d holds %s in a %s column, want %s", where, w.sql, i, r[0].K, schema.Columns[0].Kind, w.kind)
		}
	}
	if strings.Join(got, "; ") != w.want {
		t.Errorf("%s: %s = %q, want %q", where, w.sql, strings.Join(got, "; "), w.want)
	}
}

// TestWellTypedOrRefused: every statement is resolved through the
// signature table on the QD — refused in PostgreSQL's words, or
// answered with one kind per column — on a row and a column table, as
// text and through $n, and by Stinger, which binds with the same
// binder. Four of them used to end the process from a QE goroutine,
// others answered wrongly (5 + INTERVAL '3 day' was 1970-01-09).
func TestWellTypedOrRefused(t *testing.T) {
	e, err := engine.New(engine.Config{Segments: 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	mustExec := func(sql string) *engine.Result {
		res, err := s.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	for _, with := range []string{"appendonly=true", "appendonly=true, orientation=column"} {
		mustExec(fmt.Sprintf("DROP TABLE IF EXISTS acc; CREATE TABLE acc (id INT8 NOT NULL, owner TEXT, balance DECIMAL(12,2), opened DATE) WITH (%s) DISTRIBUTED BY (id)", with))
		var values []string
		for i := 1; i <= 20; i++ {
			values = append(values, fmt.Sprintf("(%d, 'owner%d', %d.50, DATE '2013-0%d-15')", i, i%10, i*100, i%9+1))
		}
		mustExec("INSERT INTO acc VALUES " + strings.Join(values, ", "))
		for _, w := range wellTypedRows {
			res, err := s.Query(strings.ReplaceAll(w.sql, "{t}", "acc"))
			if err != nil {
				res = &engine.Result{}
			}
			w.check(t, with, res.Schema, res.Rows, err)
		}
		for i, p := range wellTypedParams {
			name := fmt.Sprintf("w%d", i)
			if err := s.Prepare(name, strings.ReplaceAll(p.sql, "{t}", "acc")); err != nil {
				t.Fatal(err)
			}
			for range 2 { // the generic plan, then the cached one
				res, err := s.ExecutePrepared(name, p.args...)
				if err != nil {
					res = &engine.Result{}
				}
				p.check(t, with+", $n", res.Schema, res.Rows, err)
			}
			if err := s.Deallocate(name); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Stinger binds through planner.Bind: the same answers and refusals.
	all := mustExec("SELECT * FROM acc ORDER BY id")
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stinger.NewEngine(fs, stinger.Config{MapTasks: 2, ReduceTasks: 2, Workers: 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LoadTable("acc", all.Schema, all.Rows); err != nil {
		t.Fatal(err)
	}
	for _, w := range wellTypedRows {
		if !strings.Contains(w.sql, "{t}") || strings.Contains(w.sql, " JOIN ") {
			continue // Stinger needs a FROM, and words a join's ON as WHERE
		}
		rows, schema, err := st.Query(strings.ReplaceAll(w.sql, "{t}", "acc"))
		w.check(t, "stinger", schema, rows, err)
	}
}
