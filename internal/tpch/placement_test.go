package tpch

import (
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"

	"hawq/internal/clock"
	"hawq/internal/engine"
	"hawq/internal/plan"
)

// TestPredicatePlacementOnTPCH pins what predicate placement (DESIGN.md
// §18) does to the three queries it was built for: Q7's OR gives each
// nation scan its own two names, Q13's nullable-side ON conjunct filters
// orders below the join so o_comment crosses no motion, and Q18's IN
// filters the orders scan itself, below the joins.
func TestPredicatePlacementOnTPCH(t *testing.T) {
	e, _ := loadedEngine(t, 4, LoadOptions{Scale: Scale{SF: testSF}, Orientation: "row", CompressType: "quicklz"})

	filters := map[string]bool{}
	planStmt(t, e, Queries[7]).Walk(func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && s.Table.Name == "nation" && s.Filter != nil {
			filters[s.Filter.String()] = true
		}
	})
	for _, want := range []string{
		"((n1.n_name = 'FRANCE') OR (n1.n_name = 'GERMANY'))",
		"((n2.n_name = 'GERMANY') OR (n2.n_name = 'FRANCE'))",
	} {
		if !filters[want] {
			t.Errorf("Q7: no nation scan filters %s (filters: %v)", want, filters)
		}
	}

	pl := planStmt(t, e, Queries[13])
	pl.Walk(func(n plan.Node) {
		if m, ok := n.(*plan.Motion); ok {
			for _, name := range m.OutSchema().Names() {
				if name == "o_comment" {
					t.Errorf("Q13: a %s carries o_comment:\n%s", m.Type, pl.Explain())
				}
			}
		}
	})

	pl = planStmt(t, e, Queries[18])
	placed := false
	pl.Walk(func(n plan.Node) {
		if hj, ok := n.(*plan.HashJoin); ok && hj.Kind == plan.SemiJoin {
			s, onScan := hj.Left.(*plan.Scan)
			placed = onScan && s.Table.Name == "orders"
		}
	})
	if !placed {
		t.Errorf("Q18: the IN semi join does not sit on the orders scan:\n%s", pl.Explain())
	}
}

// motionRE matches a sending motion's line of EXPLAIN ANALYZE: its kind,
// rows and bytes (absent when nothing was sent).
var motionRE = regexp.MustCompile(`(Gather|Broadcast|Redistribute) Motion .*\(rows=(\d+) batches=\d+(?: bytes=(\d+))?`)

// joinEngine boots a simulated 4-segment cluster on the data tpch_join's
// seed 1 loads: SF 0.005, row + quicklz.
func joinEngine(t *testing.T) *engine.Engine {
	sim := clock.NewSim(time.Time{})
	e, err := engine.New(engine.Config{Segments: 4, SpillDir: t.TempDir(), Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := Load(e, LoadOptions{Scale: Scale{SF: 0.005, Seed: 1}, Orientation: "row", CompressType: "quicklz"}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMotionTrafficBudget puts ceilings, at the measured values, on what
// the join queries move through each motion on tpch_join's seed-1 data.
// Predicate placement (DESIGN.md §18) set the first ones: before it Q7
// redistributed 9 754 rows twice (448 KB and 400 KB), Q13's redistribute
// of orders carried o_comment (468 KB), and Q18 broadcast all 750
// customers (72 KB). Costing from statistics (§19) lowered them: before
// it Q7 redistributed 789 rows twice (36 KB and 32 KB), Q10 broadcast
// every customer (442 KB) and Q17 redistributed 3 997 partial groups of
// all lineitem (43 KB).
func TestMotionTrafficBudget(t *testing.T) {
	e := joinEngine(t)
	for _, c := range []struct {
		q                   int
		redistRows, anyRows int
		bytes               int
	}{
		{3, 0, 159, 8_844},
		{7, 13, 750, 17_748},
		{10, 590, 590, 16_078},
		{13, 7_397, 7_397, 56_494},
		{17, 8, 8, 184},
		{18, 1, 1, 43},
	} {
		text := explainAnalyze(t, e, Queries[c.q])
		for _, m := range motionRE.FindAllStringSubmatch(text, -1) {
			rows, _ := strconv.Atoi(m[2])
			bytes, _ := strconv.Atoi(m[3])
			limit := c.anyRows
			if m[1] == "Redistribute" {
				limit = c.redistRows
			}
			if rows > limit || bytes > c.bytes {
				t.Errorf("Q%d: a %s motion moved %d rows, %d bytes (ceilings %d rows, %d bytes):\n%s",
					c.q, m[1], rows, bytes, limit, c.bytes, text)
			}
		}
	}
}

// TestBuildSideIsSmaller: each hash join builds its table on the input
// estimated smaller in bytes (DESIGN.md §19). Before, the accumulated
// relation was always the probe side, and five of tpch_join's six
// queries built over a lineitem scan (Q17: 30 084 rows, 1.09 MB, probed
// by 8 part rows). And Q10, which broadcast all 750 customers, now joins
// customer where it lies: only the result's gather carries c_comment.
func TestBuildSideIsSmaller(t *testing.T) {
	e := joinEngine(t)
	for _, q := range []int{3, 7, 10, 17, 18} {
		pl := planStmt(t, e, Queries[q])
		pl.Walk(func(n plan.Node) {
			if hj, ok := n.(*plan.HashJoin); ok {
				if s, isScan := hj.Right.(*plan.Scan); isScan && s.Table.Name == "lineitem" {
					t.Errorf("Q%d builds a hash table over a lineitem scan:\n%s", q, pl.Explain())
				}
			}
		})
	}
	pl := planStmt(t, e, Queries[10])
	pl.Walk(func(n plan.Node) {
		if m, ok := n.(*plan.Motion); ok && m.Type != plan.GatherMotion && slices.Contains(m.OutSchema().Names(), "c_comment") {
			t.Errorf("Q10: a %s carries c_comment:\n%s", m.Type, pl.Explain())
		}
	})
}
