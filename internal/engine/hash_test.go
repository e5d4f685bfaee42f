package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestEveryConsumerOfTheHashAgrees: one value class at a time, the rows a
// value was placed on by INSERT are the rows every other user of the key
// hash finds it on — a lookup by constant and by $n, each dispatched to
// the one segment it hashes to; a join on the key from either side,
// where a redistribute motion brings the other table's rows to the
// placed ones; and GROUP BY, whose partial groups a motion brings
// together. Each value is written in two representations that compare
// equal: INT4 and INT8, decimals of scales 0 to 4 against a wider scale
// (7 against 7.00), ±0.0, a parsed NaN against one computed in SQL,
// ±Infinity, and strings with an empty one and a trailing space. A Mixed
// vector — an integer and a decimal, or two scales, in one computed key
// column — is grouped and joined against the placed values too.
func TestEveryConsumerOfTheHashAgrees(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.NewSession()
	double := func(v string) string { return "CAST('" + v + "' AS DOUBLE PRECISION)" }
	type class struct {
		name, tkind, ukind string
		tvals, uvals       []string
	}
	classes := []class{
		{"int", "INT4", "INT8", []string{"0", "7", "-3", "2147483647"}, []string{"0", "7", "-3", "2147483647"}},
		{"float", "DOUBLE PRECISION", "DOUBLE PRECISION",
			[]string{"0.0", double("NaN"), double("Infinity"), double("-Infinity"), "1.5"},
			[]string{double("-0.0"), double("Infinity") + " - " + double("Infinity"), double("Infinity"), double("-Infinity"), "1.50"}},
		{"text", "TEXT", "TEXT", []string{"''", "'a '", "'a'"}, []string{"''", "'a '", "'a'"}},
	}
	for sc, frac := range []string{"", "7.5", "-1.25", "0.125", "0.0625"} {
		vals := []string{"0", "7", "-3"}
		if frac != "" {
			vals = append(vals, frac)
		}
		ukind := fmt.Sprintf("DECIMAL(18,%d)", sc+2)
		if sc == 0 {
			ukind = "INT8"
		}
		classes = append(classes, class{fmt.Sprintf("dec%d", sc), fmt.Sprintf("DECIMAL(10,%d)", sc), ukind, vals, vals})
	}
	count := func(sql string) int64 {
		t.Helper()
		return mustExec(t, s, sql).Rows[0][0].Int()
	}
	explain := func(sql string) string {
		t.Helper()
		return strings.Join(rowsString(mustExec(t, s, "EXPLAIN "+sql)), "\n")
	}
	const with = "WITH (appendonly=true, orientation=column, compresstype=quicklz)"
	for _, c := range classes {
		tt, ut, at := "t_"+c.name, "u_"+c.name, "a_"+c.name
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (id INT8, k %s) %s DISTRIBUTED BY (k)", tt, c.tkind, with))
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (id INT8, k %s) %s DISTRIBUTED BY (id)", ut, c.ukind, with))
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (id INT8, k %s) %s DISTRIBUTED RANDOMLY", at, c.tkind, with))
		for i := range c.tvals {
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s SELECT %d, %s", tt, i, c.tvals[i]))
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s SELECT %d, %s", ut, 100+i, c.uvals[i]))
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s SELECT id, k FROM %s", at, tt))
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s SELECT id, k FROM %s", at, ut))
		n := int64(len(c.tvals))

		// A lookup finds the value on the segment it hashes to, written
		// either way, as a constant and as a parameter.
		mustExec(t, s, fmt.Sprintf("PREPARE get_%s AS SELECT id FROM %s WHERE k = $1", c.name, tt))
		for i := range c.tvals {
			for _, v := range []string{c.tvals[i], c.uvals[i]} {
				sql := fmt.Sprintf("SELECT id FROM %s WHERE k = %s", tt, v)
				if plan := explain(sql); !strings.Contains(plan, "segments [") {
					t.Errorf("%s: %s is not dispatched to one segment:\n%s", c.name, sql, plan)
				}
				for _, q := range []string{sql, fmt.Sprintf("EXECUTE get_%s (%s)", c.name, v)} {
					if got := rowsString(mustExec(t, s, q)); len(got) != 1 || got[0] != fmt.Sprint(i) {
						t.Errorf("%s: %s finds %v, want [%d]", c.name, q, got, i)
					}
				}
			}
		}

		// A join on the key, from either side, meets every value once.
		for _, sql := range []string{
			fmt.Sprintf("SELECT count(*) FROM %s a, %s b WHERE a.k = b.k", tt, ut),
			fmt.Sprintf("SELECT count(*) FROM %s b, %s a WHERE b.k = a.k", ut, tt),
		} {
			if plan := explain(sql); !strings.Contains(plan, "Hash Join") || !strings.Contains(plan, "Redistribute") {
				t.Errorf("%s: %s is no hash join over a redistribute motion:\n%s", c.name, sql, plan)
			}
			if got := count(sql); got != n {
				t.Errorf("%s: %s counts %d, want %d", c.name, sql, got, n)
			}
		}

		// Both representations of a value are one group.
		res := mustExec(t, s, fmt.Sprintf("SELECT k, count(*) FROM %s GROUP BY k", at))
		if len(res.Rows) != int(n) {
			t.Errorf("%s: GROUP BY k gives %d groups, want %d: %v", c.name, len(res.Rows), n, rowsString(res))
		}
		for _, row := range res.Rows {
			if row[1].Int() != 2 {
				t.Errorf("%s: GROUP BY k gives %v, want every group of 2", c.name, rowsString(res))
				break
			}
		}
	}

	// A Mixed key column: an integer beside a decimal, two scales of one
	// decimal, computed per row, grouped and joined against the values
	// INSERT placed.
	for _, m := range []struct{ table, key string }{
		{"dec0", "CASE WHEN id < 100 THEN k ELSE CAST(k AS INT8) END"},
		{"dec2", "CASE WHEN id < 100 THEN k ELSE CAST(k AS DECIMAL(12,4)) END"},
	} {
		sql := fmt.Sprintf("SELECT %s, count(*) FROM a_%s GROUP BY %s", m.key, m.table, m.key)
		res := mustExec(t, s, sql)
		for _, row := range res.Rows {
			if row[1].Int() != 2 {
				t.Errorf("%s gives %v, want every group of 2", sql, rowsString(res))
				break
			}
		}
		sql = fmt.Sprintf("SELECT count(*) FROM t_%s a, (SELECT %s AS m FROM a_%s) b WHERE a.k = b.m", m.table, m.key, m.table)
		if got, want := count(sql), 2*count("SELECT count(*) FROM t_"+m.table); got != want {
			t.Errorf("%s counts %d, want %d", sql, got, want)
		}
	}
}
