package tpch

import (
	"regexp"
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

// TestMotionTrafficBudget puts ceilings on what Q7, Q13 and Q18 move
// through each motion at SF 0.005 on the data tpch_join's seed 1 loads —
// the traffic predicate placement removed. At the parent of the change
// Q7 redistributed 9 754 rows twice (448 KB and 400 KB), Q13's
// redistribute of orders carried o_comment (468 KB), and Q18 broadcast
// all 750 customers (72 KB) to join 30 000 lineitems before its IN kept
// one order.
func TestMotionTrafficBudget(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	e, err := engine.New(engine.Config{Segments: 4, SpillDir: t.TempDir(), Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := Load(e, LoadOptions{Scale: Scale{SF: 0.005, Seed: 1}, Orientation: "row", CompressType: "quicklz"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q                   int
		redistRows, anyRows int
		bytes               int
	}{
		{7, 1000, 1000, 50_000},
		{13, 10_000, 10_000, 200_000},
		{18, 100, 100, 2_000},
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
