package engine

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// dec is a DECIMAL literal: sqlLit writes it unquoted.
type dec string

// num is a key cell's numeric value, for comparing across kinds in Go.
func num(c any) float64 {
	switch v := c.(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	f, _ := strconv.ParseFloat(string(c.(dec)), 64)
	return f
}

// eq is SQL's `a = b` over key cells being TRUE.
func eq(a, b any) bool { return a != nil && b != nil && num(a) == num(b) }

// TestEquivalenceClassesSound holds the planner's column classes
// (DESIGN.md §19, "One column identity") to answers computed in Go, on 1
// and 4 segments, every table hashed on its first column and NULLs in
// every key column: (a) a class colocates a join before the join that
// applies its equality, and groups through it; (b) a DOUBLE equal to a
// DECIMAL joins no class, and its join still moves data; (c) a LEFT
// JOIN's ON equality joins no class, so nothing groups through its
// nullable side; (d) decimal keys of two scales join and group as one
// value.
func TestEquivalenceClassesSound(t *testing.T) {
	key := func(i, mod int64) any { return nullish(i%7 == 3, i%mod) }
	var t1, t2, t3, p, q []cells
	for i := int64(0); i < 48; i++ {
		t1 = append(t1, cells{key(i, 6), key(i/2, 6)}) // a = b on some rows only
		t2 = append(t2, cells{key(i, 8)})
		t3 = append(t3, cells{key(i+2, 5)})
		p = append(p, cells{key(i, 10)})
		q = append(q, cells{key(i+5, 4)})
	}
	var x, y, z []cells
	doubles := []any{0.5, 1.25, 2.0, nil, 3.75}
	decs2 := []any{dec("0.50"), dec("1.25"), dec("2.00"), nil, dec("3.70")}
	decs4 := []any{dec("0.5000"), dec("1.2500"), dec("2.0000"), nil, dec("3.7000")}
	for i := 0; i < 15; i++ {
		x = append(x, cells{doubles[i%5]})
		y = append(y, cells{decs2[(i+1)%5]})
		z = append(z, cells{decs4[(i+2)%5]})
	}
	count := func(n int) []string { return []string{strconv.Itoa(n)} }
	// distinct counts the values of keys by value, NULL left out.
	distinct := func(keys []any) int {
		seen := map[float64]bool{}
		for _, k := range keys {
			if k != nil {
				seen[num(k)] = true
			}
		}
		return len(seen)
	}
	var a3, agroups, bxy, bxyz, dyz []any
	for _, r1 := range t1 {
		for _, r3 := range t3 {
			if eq(r1[0], r3[0]) && eq(r1[1], r3[0]) {
				agroups = append(agroups, r1[1])
				for _, r2 := range t2 {
					if eq(r1[1], r2[0]) {
						a3 = append(a3, r1[1])
					}
				}
			}
		}
	}
	for _, rx := range x {
		for _, ry := range y {
			if eq(rx[0], ry[0]) {
				bxy = append(bxy, ry[0])
				for _, rz := range z {
					if eq(ry[0], rz[0]) {
						bxyz = append(bxyz, rz[0])
					}
				}
			}
		}
	}
	for _, ry := range y {
		for _, rz := range z {
			if eq(ry[0], rz[0]) {
				dyz = append(dyz, rz[0])
			}
		}
	}
	// (c): each p row with its q matches, or once NULL-extended.
	groups := map[string]int{}
	for _, rp := range p {
		matched := false
		for _, rq := range q {
			if eq(rp[0], rq[0]) {
				groups[fmt.Sprint(rq[0])]++
				matched = true
			}
		}
		if !matched {
			groups["NULL"]++
		}
	}
	var leftGroups []string
	for k, n := range groups {
		leftGroups = append(leftGroups, fmt.Sprintf("%s|%d", k, n))
	}
	cases := []struct {
		name, sql string
		want      []string
	}{
		{"(a) colocated through a class before its join",
			`SELECT count(*) FROM t1, t2, t3 WHERE t1.a = t3.x AND t1.b = t3.x AND t1.b = t2.k`, count(len(a3))},
		{"(a) grouped through a class",
			`SELECT count(*) FROM (SELECT t1.b, count(*) AS n FROM t1, t3 WHERE t1.a = t3.x AND t1.b = t3.x GROUP BY t1.b) g`,
			count(distinct(agroups))},
		{"(b) DOUBLE = DECIMAL", `SELECT count(*) FROM x, y WHERE x.b = y.c`, count(len(bxy))},
		{"(b) DOUBLE = DECIMAL = DECIMAL", `SELECT count(*) FROM x, y, z WHERE x.b = y.c AND y.c = z.d`, count(len(bxyz))},
		{"(c) a LEFT JOIN's nullable side", `SELECT q.k, count(*) FROM p LEFT JOIN q ON p.a = q.k GROUP BY q.k`, leftGroups},
		{"(d) decimal scales join", `SELECT count(*) FROM y, z WHERE y.c = z.d`, count(len(dyz))},
		{"(d) decimal scales group",
			`SELECT count(*) FROM (SELECT z.d, count(*) AS n FROM y, z WHERE y.c = z.d GROUP BY z.d) g`, count(distinct(dyz))},
		{"(d) decimal scales group, the other side's key",
			`SELECT count(*) FROM (SELECT y.c, count(*) AS n FROM y, z WHERE y.c = z.d GROUP BY y.c) g`, count(distinct(dyz))},
	}
	for _, segs := range []int{1, 4} {
		t.Run(fmt.Sprintf("%dseg", segs), func(t *testing.T) {
			s := newTestEngine(t, segs).NewSession()
			createLoaded(t, s, true, "t1", "a INT8, b INT8", t1)
			createLoaded(t, s, true, "t2", "k INT8", t2)
			createLoaded(t, s, true, "t3", "x INT8", t3)
			createLoaded(t, s, true, "p", "a INT8", p)
			createLoaded(t, s, true, "q", "k INT8", q)
			createLoaded(t, s, true, "x", "b DOUBLE", x)
			createLoaded(t, s, true, "y", "c DECIMAL(10,2)", y)
			createLoaded(t, s, true, "z", "d DECIMAL(12,4)", z)
			for _, c := range cases {
				if got := sortedRows(rowsString(mustExec(t, s, c.sql))); !reflect.DeepEqual(got, sortedRows(c.want)) {
					t.Errorf("%s: got %v, want %v", c.name, got, sortedRows(c.want))
				}
			}
			if segs == 1 {
				return
			}
			explain := func(sql string) string { return strings.Join(rowsString(mustExec(t, s, "EXPLAIN "+sql)), "\n") }
			// (a): every join of the three tables is colocated through the
			// class {t1.a, t1.b, t3.x, t2.k}, whichever comes first.
			if plan := explain(cases[0].sql); strings.Contains(plan, "Redistribute") || strings.Contains(plan, "Broadcast") {
				t.Errorf("(a) moves data:\n%s", plan)
			}
			// (b): no class holds x.b and y.c, so their join moves one side.
			if plan := explain(cases[2].sql); !strings.Contains(plan, "Redistribute") && !strings.Contains(plan, "Broadcast") {
				t.Errorf("(b) joins a DOUBLE to a DECIMAL in place:\n%s", plan)
			}
		})
	}
}
