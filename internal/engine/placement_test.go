package engine

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The tests below hold the planner's predicate placement (DESIGN.md §18)
// to answers computed in Go, over NULL-heavy data, on 1 and 4 segments
// with hash and random distribution.

// tv is a SQL truth value.
type tv int8

const (
	tvFalse tv = iota
	tvTrue
	tvNull
)

func and3(a, b tv) tv {
	switch {
	case a == tvFalse || b == tvFalse:
		return tvFalse
	case a == tvNull || b == tvNull:
		return tvNull
	}
	return tvTrue
}

func or3(a, b tv) tv {
	switch {
	case a == tvTrue || b == tvTrue:
		return tvTrue
	case a == tvNull || b == tvNull:
		return tvNull
	}
	return tvFalse
}

func not3(a tv) tv {
	switch a {
	case tvTrue:
		return tvFalse
	case tvFalse:
		return tvTrue
	}
	return tvNull
}

// cmp3 compares two cells (nil is NULL) with op.
func cmp3(a any, op string, b any) tv {
	if a == nil || b == nil {
		return tvNull
	}
	var c int
	switch x := a.(type) {
	case int64:
		c = compareInt(x, b.(int64))
	case string:
		c = strings.Compare(x, b.(string))
	}
	ok := map[string]bool{"=": c == 0, "<>": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op]
	if ok {
		return tvTrue
	}
	return tvFalse
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func isNull3(a any) tv {
	if a == nil {
		return tvTrue
	}
	return tvFalse
}

// prefix3 is `a LIKE 'p%'`.
func prefix3(a any, p string) tv {
	if a == nil {
		return tvNull
	}
	if strings.HasPrefix(a.(string), p) {
		return tvTrue
	}
	return tvFalse
}

// in3 is `x IN (ys)`: true on a match, else NULL when x or some y is NULL
// (and ys is not empty), else false.
func in3(x any, ys []any) tv {
	out := tvFalse
	for _, y := range ys {
		out = or3(out, cmp3(x, "=", y))
	}
	return out
}

type cells []any

func (r cells) String() string {
	parts := make([]string, len(r))
	for i, c := range r {
		switch v := c.(type) {
		case nil:
			parts[i] = "NULL"
		case int64:
			parts[i] = strconv.FormatInt(v, 10)
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	return strings.Join(parts, "|")
}

func sqlLit(c any) string {
	switch v := c.(type) {
	case nil:
		return "NULL"
	case string:
		return "'" + v + "'"
	}
	return fmt.Sprint(c)
}

// nullish returns v, or NULL when cond holds.
func nullish(cond bool, v any) any {
	if cond {
		return nil
	}
	return v
}

// placementEngines runs body once per (segments, distribution) pair, on
// a fresh engine where create(dist) made the tables: dist is a
// DISTRIBUTED clause for the table's first column or RANDOMLY.
func placementEngines(t *testing.T, body func(t *testing.T, s *Session, hash bool)) {
	for _, segs := range []int{1, 4} {
		for _, hash := range []bool{true, false} {
			t.Run(fmt.Sprintf("%dseg/hash=%v", segs, hash), func(t *testing.T) {
				body(t, newTestEngine(t, segs).NewSession(), hash)
			})
		}
	}
}

func createLoaded(t *testing.T, s *Session, hash bool, name, cols string, rows []cells) {
	t.Helper()
	dist := "DISTRIBUTED RANDOMLY"
	if hash {
		dist = fmt.Sprintf("DISTRIBUTED BY (%s)", strings.Fields(cols)[0])
	}
	mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (%s) %s", name, cols, dist))
	if len(rows) == 0 {
		return
	}
	vals := make([]string, len(rows))
	for i, r := range rows {
		lits := make([]string, len(r))
		for j, c := range r {
			lits[j] = sqlLit(c)
		}
		vals[i] = "(" + strings.Join(lits, ", ") + ")"
	}
	mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(vals, ", ")))
}

func sortedRows(rows []string) []string {
	out := append([]string{}, rows...)
	sort.Strings(out)
	return out
}

// TestNotInIsNullAware: x NOT IN (subquery) is not NOT EXISTS. With a.x in
// {1, 2, NULL}, a NULL among the subquery's values fails every row, and
// the NULL x passes only when the subquery is empty. The parent planned
// NOT IN as an anti join alone and returned the x = 2 and NULL rows
// against {1, 4, NULL}, and the NULL row against {1, 4}.
func TestNotInIsNullAware(t *testing.T) {
	cases := []struct {
		b    []cells
		want []string
	}{
		{[]cells{{int64(1)}, {int64(4)}, {nil}}, nil},
		{[]cells{{int64(1)}, {int64(4)}}, []string{"2"}},
		{nil, []string{"1", "2", "NULL"}},
		{[]cells{{nil}}, nil},
	}
	placementEngines(t, func(t *testing.T, s *Session, hash bool) {
		createLoaded(t, s, hash, "a", "x INT8", []cells{{int64(1)}, {int64(2)}, {nil}})
		for i, c := range cases {
			b := fmt.Sprintf("b%d", i)
			createLoaded(t, s, hash, b, "x INT8", c.b)
			got := sortedRows(rowsString(mustExec(t, s, fmt.Sprintf("SELECT x FROM a WHERE x NOT IN (SELECT x FROM %s)", b))))
			if len(got) != len(c.want) || (len(got) > 0 && !reflect.DeepEqual(got, c.want)) {
				t.Errorf("a.x NOT IN %v = %v, want %v", c.b, got, c.want)
			}
		}
	})
}

// TestRightJoinListsLeftColumnsFirst: a RIGHT JOIN b is planned as
// b LEFT JOIN a, and its columns must come back as a's then b's.
func TestRightJoinListsLeftColumnsFirst(t *testing.T) {
	s := newTestEngine(t, 2).NewSession()
	mustExec(t, s, "CREATE TABLE a (x INT8, y INT8) DISTRIBUTED BY (x)")
	mustExec(t, s, "CREATE TABLE b (x INT8, z INT8) DISTRIBUTED BY (x)")
	mustExec(t, s, "INSERT INTO a VALUES (1, 10), (2, 20)")
	mustExec(t, s, "INSERT INTO b VALUES (1, 100), (3, 300)")
	res := mustExec(t, s, "SELECT * FROM a RIGHT JOIN b ON a.x = b.x")
	if got := res.Schema.Names(); !reflect.DeepEqual(got, []string{"x", "y", "x", "z"}) {
		t.Errorf("header %v, want [x y x z]", got)
	}
	if got, want := sortedRows(rowsString(res)), []string{"1|10|1|100", "NULL|NULL|3|300"}; !reflect.DeepEqual(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	// Grouped above the join, the restored order must still bind.
	res = mustExec(t, s, "SELECT b.z, count(a.y) FROM a RIGHT JOIN b ON a.x = b.x AND a.y > 15 GROUP BY b.z")
	if got, want := sortedRows(rowsString(res)), []string{"100|0", "300|0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("grouped right join %v, want %v", got, want)
	}
}

// TestPredicatePlacementNullHeavy runs one query per placement shape —
// ORs split per table, ON conjuncts on either side of inner, left and
// right joins, IN / EXISTS / NOT EXISTS / NOT IN on one table or on two —
// over columns a quarter to a third NULL, and compares each answer with
// the one computed here under SQL's three-valued logic.
func TestPredicatePlacementNullHeavy(t *testing.T) {
	var t1, t2, t3, t4 []cells
	for i := int64(0); i < 40; i++ {
		t1 = append(t1, cells{nullish(i%7 == 3, i%9), nullish(i%4 == 1, i%5), nullish(i%6 == 5, []string{"x1", "y2", "x3"}[i%3])})
	}
	for i := int64(0); i < 30; i++ {
		t2 = append(t2, cells{nullish(i%5 == 4, i*2%9), nullish(i%3 == 2, i%4), nullish(i%7 == 6, []string{"x5", "y6"}[i%2])})
	}
	for i := int64(0); i < 6; i++ {
		t3 = append(t3, cells{nullish(i == 5, i), i%3 + 1})
	}
	t4 = append(append(t4, t3...), cells{int64(2), nil}, cells{int64(7), int64(4)})
	col := func(rows []cells, c int) []any {
		out := make([]any, len(rows))
		for i, r := range rows {
			out[i] = r[c]
		}
		return out
	}
	where := func(rows []cells, keep func(cells) bool) []cells {
		var out []cells
		for _, r := range rows {
			if keep(r) {
				out = append(out, r)
			}
		}
		return out
	}
	// pairs models "FROM t1, t2 WHERE t1.k = t2.k AND pred", selecting
	// t1.k, t1.a, t2.b.
	pairs := func(pred func(a, b cells) tv) []string {
		var out []string
		for _, a := range t1 {
			for _, b := range t2 {
				if and3(cmp3(a[0], "=", b[0]), pred(a, b)) == tvTrue {
					out = append(out, cells{a[0], a[1], b[1]}.String())
				}
			}
		}
		return out
	}
	// leftJoin models "t1 LEFT JOIN t2 ON t1.k = t2.k AND on", selecting
	// t1.k, t1.a, t2.b.
	leftJoin := func(on func(a, b cells) tv) []string {
		var out []string
		for _, a := range t1 {
			matched := false
			for _, b := range t2 {
				if and3(cmp3(a[0], "=", b[0]), on(a, b)) == tvTrue {
					matched = true
					out = append(out, cells{a[0], a[1], b[1]}.String())
				}
			}
			if !matched {
				out = append(out, cells{a[0], a[1], nil}.String())
			}
		}
		return out
	}
	// notIn models x NOT IN (SELECT c FROM t4 WHERE t4.k = k).
	notInGroup := func(x, k any) tv {
		group := where(t4, func(r cells) bool { return cmp3(r[0], "=", k) == tvTrue })
		return not3(in3(x, col(group, 1)))
	}
	existsT3 := func(match func(r cells) tv) tv {
		for _, r := range t3 {
			if match(r) == tvTrue {
				return tvTrue
			}
		}
		return tvFalse
	}
	const sel = "SELECT t1.k, t1.a, t2.b FROM t1, t2 WHERE t1.k = t2.k AND "
	cases := []struct {
		name, sql string
		want      []string
	}{
		{"or splits per table",
			sel + "((t1.a = 1 AND t2.b = 2) OR (t1.a = 3 AND t2.b IS NULL) OR (t1.a IS NULL AND t2.s LIKE 'x%'))",
			pairs(func(a, b cells) tv {
				return or3(or3(and3(cmp3(a[1], "=", int64(1)), cmp3(b[1], "=", int64(2))),
					and3(cmp3(a[1], "=", int64(3)), isNull3(b[1]))),
					and3(isNull3(a[1]), prefix3(b[2], "x")))
			})},
		{"or with a disjunct on one table only",
			sel + "((t1.a = 1 AND t2.b = 2) OR t2.b = 0)",
			pairs(func(a, b cells) tv {
				return or3(and3(cmp3(a[1], "=", int64(1)), cmp3(b[1], "=", int64(2))), cmp3(b[1], "=", int64(0)))
			})},
		{"not over an or",
			sel + "NOT (t1.a = 1 OR t2.b = 2)",
			pairs(func(a, b cells) tv { return not3(or3(cmp3(a[1], "=", int64(1)), cmp3(b[1], "=", int64(2)))) })},
		{"left join: nullable side pushed, preserved side kept",
			"SELECT t1.k, t1.a, t2.b FROM t1 LEFT JOIN t2 ON t1.k = t2.k AND t2.b > 1 AND t1.a <> 2",
			leftJoin(func(a, b cells) tv { return and3(cmp3(b[1], ">", int64(1)), cmp3(a[1], "<>", int64(2))) })},
		{"right join: nullable side pushed, preserved side kept",
			"SELECT t1.k, t1.a, t2.b FROM t2 RIGHT JOIN t1 ON t1.k = t2.k AND t2.s LIKE 'x%' AND t1.a IS NOT NULL",
			leftJoin(func(a, b cells) tv { return and3(prefix3(b[2], "x"), not3(isNull3(a[1]))) })},
		{"left join with a WHERE on the nullable side",
			"SELECT t1.k, t1.a, t2.b FROM t1 LEFT JOIN t2 ON t1.k = t2.k AND t2.b IS NOT NULL WHERE t2.b IS NULL",
			func() []string {
				var out []string
				for _, r := range leftJoin(func(a, b cells) tv { return not3(isNull3(b[1])) }) {
					if strings.HasSuffix(r, "|NULL") {
						out = append(out, r)
					}
				}
				return out
			}()},
		{"inner join: both sides pushed",
			"SELECT t1.k, t1.a, t2.b FROM t1 JOIN t2 ON t1.k = t2.k AND t1.a >= 2 AND t2.b IS NOT NULL",
			pairs(func(a, b cells) tv { return and3(cmp3(a[1], ">=", int64(2)), not3(isNull3(b[1]))) })},
		{"in on one table",
			sel + "t1.a IN (SELECT c FROM t3)",
			pairs(func(a, b cells) tv { return in3(a[1], col(t3, 1)) })},
		{"exists on one table",
			sel + "EXISTS (SELECT 1 FROM t3 WHERE t3.k = t2.b)",
			pairs(func(a, b cells) tv { return existsT3(func(r cells) tv { return cmp3(r[0], "=", b[1]) }) })},
		{"not exists on one table",
			sel + "NOT EXISTS (SELECT 1 FROM t3 WHERE t3.k = t1.a)",
			pairs(func(a, b cells) tv { return not3(existsT3(func(r cells) tv { return cmp3(r[0], "=", a[1]) })) })},
		{"not in on one table",
			sel + "t1.a NOT IN (SELECT c FROM t3)",
			pairs(func(a, b cells) tv { return not3(in3(a[1], col(t3, 1))) })},
		{"not in against a NULL",
			sel + "t2.b NOT IN (SELECT c FROM t4)",
			pairs(func(a, b cells) tv { return not3(in3(b[1], col(t4, 1))) })},
		{"correlated not in",
			sel + "t1.a NOT IN (SELECT c FROM t4 WHERE t4.k = t1.k)",
			pairs(func(a, b cells) tv { return notInGroup(a[1], a[0]) })},
		{"exists over two tables",
			sel + "EXISTS (SELECT 1 FROM t3 WHERE t3.k = t1.a AND t3.c = t2.b)",
			pairs(func(a, b cells) tv {
				return existsT3(func(r cells) tv { return and3(cmp3(r[0], "=", a[1]), cmp3(r[1], "=", b[1])) })
			})},
	}
	placementEngines(t, func(t *testing.T, s *Session, hash bool) {
		createLoaded(t, s, hash, "t1", "k INT8, a INT8, s TEXT", t1)
		createLoaded(t, s, hash, "t2", "k INT8, b INT8, s TEXT", t2)
		createLoaded(t, s, hash, "t3", "k INT8, c INT8", t3)
		createLoaded(t, s, hash, "t4", "k INT8, c INT8", t4)
		for _, c := range cases {
			got := sortedRows(rowsString(mustExec(t, s, c.sql)))
			want := sortedRows(c.want)
			if (len(want) == 0) != (c.name == "not in against a NULL") {
				t.Errorf("%s: the model keeps %d rows", c.name, len(want))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s:\n%s\n got %v\nwant %v", c.name, c.sql, got, want)
			}
		}
	})
}
