package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The tests below hold the planner's costing from statistics (DESIGN.md
// §19) to answers computed in Go: the build side it picks must not reorder
// a SELECT *'s columns, and a magic set must not change a grouped derived
// table's groups.

// starTables are four tables of different sizes, so the join order — and
// with it the order the joined columns come out in — differs from the
// FROM order.
var starTables = []struct {
	name string
	rows int
	mod  int64
}{{"sa", 3, 3}, {"sb", 12, 4}, {"sc", 40, 5}, {"sd", 2, 2}}

// TestStarListsFromOrder: SELECT * over a comma join lists its columns in
// FROM order, whatever order the joins ran in. The parent listed them in
// join order: the smallest table's first.
func TestStarListsFromOrder(t *testing.T) {
	s := newTestEngine(t, 2).NewSession()
	data := map[string][]cells{}
	for _, tb := range starTables {
		var rows []cells
		for i := 0; i < tb.rows; i++ {
			rows = append(rows, cells{int64(i) % tb.mod, fmt.Sprintf("%s%d", tb.name, i)})
		}
		createLoaded(t, s, true, tb.name, fmt.Sprintf("k INT8, %s_v TEXT", tb.name), rows)
		data[tb.name] = rows
	}
	// want lists the rows of FROM from whose keys are all equal, each
	// table's cells in FROM order.
	want := func(from []string) []string {
		out := []string{""}
		for i, name := range from {
			var next []string
			for _, prefix := range out {
				for _, r := range data[name] {
					if i > 0 && !strings.HasPrefix(prefix, fmt.Sprint(r[0])+"|") {
						continue
					}
					next = append(next, prefix+r.String()+"|")
				}
			}
			out = next
		}
		for i := range out {
			out[i] = strings.TrimSuffix(out[i], "|")
		}
		return out
	}
	for _, from := range [][]string{
		{"sa", "sb"}, {"sc", "sd"}, {"sc", "sa", "sb"}, {"sb", "sc", "sd", "sa"},
	} {
		var conds, header []string
		for i, name := range from {
			if i > 0 {
				conds = append(conds, fmt.Sprintf("%s.k = %s.k", from[i-1], name))
			}
			header = append(header, "k", name+"_v")
		}
		where := " FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(conds, " AND ")
		res := mustExec(t, s, "SELECT *"+where)
		if got := res.Schema.Names(); !reflect.DeepEqual(got, header) {
			t.Errorf("SELECT *%s: header %v, want %v", where, got, header)
		}
		if got, w := sortedRows(rowsString(res)), sortedRows(want(from)); !reflect.DeepEqual(got, w) {
			t.Errorf("SELECT *%s:\n got %v\nwant %v", where, got, w)
		}
		// t.* lists one table's columns, in the order the items name them.
		last, first := from[len(from)-1], from[0]
		res = mustExec(t, s, fmt.Sprintf("SELECT %s.*, %s.*%s", last, first, where))
		if got := res.Schema.Names(); !reflect.DeepEqual(got, []string{"k", last + "_v", "k", first + "_v"}) {
			t.Errorf("SELECT %s.*, %s.*%s: header %v", last, first, where, got)
		}
	}
}

// TestMagicSetMatchesGo: a derived table grouped on its join key gets a
// semi join on the filtered keys below its aggregate (§19) and returns
// the groups it returned without one, NULL keys included. One joined on
// an aggregate instead — max(k), not a grouping key — is left alone:
// filtering its input by k would change the max.
func TestMagicSetMatchesGo(t *testing.T) {
	var facts, dims []cells
	for i := int64(0); i < 200; i++ {
		facts = append(facts, cells{nullish(i%11 == 0, i%40), nullish(i%3 == 0, i%7), i % 5})
	}
	for i := int64(0); i < 40; i++ {
		dims = append(dims, cells{nullish(i == 7, i), []string{"red", "blue", "green", "grey"}[i%4]})
	}
	red := func(k any) bool {
		for _, d := range dims {
			if cmp3(k, "=", d[0]) == tvTrue && d[1] == "red" {
				return true
			}
		}
		return false
	}
	// per groups facts by column key: avg(q), max(k) per group.
	type agg struct {
		sum, n int64
		maxK   any
	}
	per := func(key int) map[any]*agg {
		out := map[any]*agg{}
		for _, f := range facts {
			a := out[f[key]]
			if a == nil {
				a = &agg{}
				out[f[key]] = a
			}
			if f[1] != nil {
				a.sum, a.n = a.sum+f[1].(int64), a.n+1
			}
			if f[0] != nil && (a.maxK == nil || f[0].(int64) > a.maxK.(int64)) {
				a.maxK = f[0]
			}
		}
		return out
	}
	// sumBelow sums f.q over the fact rows keep admits whose q is below
	// their group's average, NULL when there are none.
	sumBelow := func(key int, keep func(f cells, a *agg) bool) []string {
		groups := per(key)
		var total int64
		matched := false
		for _, f := range facts {
			a := groups[f[key]]
			if f[key] == nil || f[1] == nil || a.n == 0 || !keep(f, a) {
				continue
			}
			if float64(f[1].(int64)) < float64(a.sum)/float64(a.n) {
				total, matched = total+f[1].(int64), true
			}
		}
		if !matched {
			return []string{"NULL"}
		}
		return []string{fmt.Sprint(total)}
	}
	cases := []struct {
		name, sql string
		want      []string
		magic     bool
	}{
		{"grouped on the join key",
			`SELECT sum(f.q) FROM facts f, dims d, (SELECT k AS gk, avg(q) AS aq FROM facts GROUP BY k) a
			WHERE f.k = d.k AND d.c = 'red' AND f.k = a.gk AND f.q < a.aq`,
			sumBelow(0, func(f cells, a *agg) bool { return red(f[0]) }), true},
		{"joined on an aggregate",
			`SELECT sum(f.q) FROM facts f, dims d, (SELECT g AS gk, max(k) AS mk, avg(q) AS aq FROM facts GROUP BY g) a
			WHERE a.mk = d.k AND d.c = 'red' AND f.g = a.gk AND f.q < a.aq`,
			sumBelow(2, func(f cells, a *agg) bool { return red(a.maxK) }), false},
	}
	placementEngines(t, func(t *testing.T, s *Session, hash bool) {
		createLoaded(t, s, hash, "facts", "k INT8, q INT8, g INT8", facts)
		createLoaded(t, s, hash, "dims", "k INT8, c TEXT", dims)
		mustExec(t, s, "ANALYZE")
		for _, c := range cases {
			if got := rowsString(mustExec(t, s, c.sql)); !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			}
			plan := strings.Join(rowsString(mustExec(t, s, "EXPLAIN "+c.sql)), "\n")
			if semi := strings.Contains(plan, "(Semi)"); semi != c.magic {
				t.Errorf("%s: semi join in the plan = %v, want %v:\n%s", c.name, semi, c.magic, plan)
			}
		}
	})
}
