package planner

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// fixture builds a catalog with two hash-distributed tables sharing a
// join key, one randomly distributed table, and usable statistics.
func fixture(t *testing.T) (*Planner, *tx.Tx) {
	t.Helper()
	cat := catalog.New(tx.NewWAL())
	mgr := tx.NewManager()
	tr := mgr.Begin(tx.ReadCommitted)
	intCol := func(n string) types.Column { return types.Column{Name: n, Kind: types.KindInt64} }
	mk := func(name string, dist catalog.DistPolicy, rows int64, cols ...types.Column) {
		desc := &catalog.TableDesc{
			Name:    name,
			Schema:  &types.Schema{Columns: cols},
			Dist:    dist,
			Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
		}
		oid, err := cat.CreateTable(tr, desc)
		if err != nil {
			t.Fatal(err)
		}
		cat.SetRelStats(tr, oid, catalog.RelStats{Rows: rows})
	}
	mk("orders", catalog.DistPolicy{Cols: []int{0}}, 10000,
		intCol("o_orderkey"), intCol("o_custkey"), types.Column{Name: "o_comment", Kind: types.KindString})
	mk("lineitem", catalog.DistPolicy{Cols: []int{0}}, 40000,
		intCol("l_orderkey"), intCol("l_partkey"), types.Column{Name: "l_tax", Kind: types.KindDecimal, Scale: 2})
	mk("randtab", catalog.DistPolicy{Random: true}, 10000,
		intCol("r_orderkey"), intCol("r_v"))
	mk("tiny", catalog.DistPolicy{Cols: []int{0}}, 5,
		intCol("t_k"), types.Column{Name: "t_name", Kind: types.KindString})
	// Distributed on its last column, so a narrow scan's output position
	// of the key differs from its table index.
	mk("customer", catalog.DistPolicy{Cols: []int{2}}, 1500,
		types.Column{Name: "c_comment", Kind: types.KindString}, types.Column{Name: "c_name", Kind: types.KindString}, intCol("c_custkey"))
	return &Planner{Cat: cat, Snap: tr.Snapshot(), NumSegments: 4}, tr
}

func planOf(t *testing.T, p *Planner, sql string) *plan.Plan {
	t.Helper()
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.PlanSelect(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return pl
}

func countMotions(p *plan.Plan, typ plan.MotionType) int {
	n := 0
	p.Walk(func(node plan.Node) {
		if m, ok := node.(*plan.Motion); ok && m.Type == typ {
			n++
		}
	})
	return n
}

func TestColocatedJoinAvoidsRedistribution(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	// Both tables hash-distributed on the join key: the Figure 3(a)
	// plan — two slices, no redistribute motion.
	pl := planOf(t, p, `SELECT l_orderkey, count(l_tax) FROM lineitem, orders
		WHERE l_orderkey = o_orderkey GROUP BY l_orderkey`)
	if got := countMotions(pl, plan.RedistributeMotion); got != 0 {
		t.Errorf("colocated join has %d redistribute motions:\n%s", got, pl.Explain())
	}
	if len(pl.Slices) != 2 {
		t.Errorf("slices = %d, want 2 (Figure 3(a)):\n%s", len(pl.Slices), pl.Explain())
	}
}

func TestRandomTableJoinRedistributes(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	// The Figure 3(b) shape: the random table must be redistributed on
	// the join key, adding a slice.
	pl := planOf(t, p, `SELECT l_orderkey, count(l_tax) FROM lineitem, randtab
		WHERE l_orderkey = r_orderkey GROUP BY l_orderkey`)
	if got := countMotions(pl, plan.RedistributeMotion); got < 1 {
		t.Errorf("random join has no redistribute motion:\n%s", pl.Explain())
	}
	if len(pl.Slices) != 3 {
		t.Errorf("slices = %d, want 3 (Figure 3(b)):\n%s", len(pl.Slices), pl.Explain())
	}
}

func TestSmallTableBroadcast(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	// Joining a 5-row table with a 40000-row one on a non-distribution
	// key: broadcasting the small side beats redistributing both.
	pl := planOf(t, p, `SELECT t_name, count(*) FROM lineitem, tiny
		WHERE l_partkey = t_k GROUP BY t_name`)
	if got := countMotions(pl, plan.BroadcastMotion); got != 1 {
		t.Errorf("broadcast motions = %d, want 1:\n%s", got, pl.Explain())
	}
	// The big table must stay in place: the join's inputs are a direct
	// scan of lineitem and the broadcast of tiny. (The redistribute the
	// plan does contain belongs to the two-phase aggregation on t_name.)
	inPlace := false
	pl.Walk(func(n plan.Node) {
		if hj, ok := n.(*plan.HashJoin); ok {
			if sc, ok := hj.Left.(*plan.Scan); ok && sc.Table.Name == "lineitem" {
				inPlace = true
			}
			if sc, ok := hj.Right.(*plan.Scan); ok && sc.Table.Name == "lineitem" {
				inPlace = true
			}
		}
	})
	if !inPlace {
		t.Errorf("lineitem was moved for the join:\n%s", pl.Explain())
	}
}

func TestTwoPhaseAggregation(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	// Grouping on a non-distribution column: partial per segment,
	// redistribute by group key, final.
	pl := planOf(t, p, "SELECT o_custkey, count(*), avg(o_orderkey) FROM orders GROUP BY o_custkey")
	var partial, final int
	pl.Walk(func(n plan.Node) {
		if a, ok := n.(*plan.HashAgg); ok {
			switch a.Phase {
			case plan.AggPartial:
				partial++
			case plan.AggFinal:
				final++
			}
		}
	})
	if partial != 1 || final != 1 {
		t.Errorf("partial=%d final=%d:\n%s", partial, final, pl.Explain())
	}
	// Grouping on the distribution key: single phase, local.
	pl = planOf(t, p, "SELECT o_orderkey, count(*) FROM orders GROUP BY o_orderkey")
	single := 0
	pl.Walk(func(n plan.Node) {
		if a, ok := n.(*plan.HashAgg); ok && a.Phase == plan.AggSingle {
			single++
		}
	})
	if single != 1 || countMotions(pl, plan.RedistributeMotion) != 0 {
		t.Errorf("dist-key grouping not local:\n%s", pl.Explain())
	}
}

func TestDirectDispatchOnDistKeyEquality(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	pl := planOf(t, p, "SELECT * FROM orders WHERE o_orderkey = 42")
	if len(pl.Slices) != 2 {
		t.Fatalf("slices = %d:\n%s", len(pl.Slices), pl.Explain())
	}
	if got := len(pl.Slices[1].Segments); got != 1 {
		t.Errorf("direct dispatch segments = %d, want 1:\n%s", got, pl.Explain())
	}
	// Disabled: all segments.
	p.DisableDirectDispatch = true
	pl = planOf(t, p, "SELECT * FROM orders WHERE o_orderkey = 42")
	if got := len(pl.Slices[1].Segments); got != 4 {
		t.Errorf("with direct dispatch off, segments = %d, want 4", got)
	}
	p.DisableDirectDispatch = false
	// A join drops the direct-dispatch property.
	pl = planOf(t, p, "SELECT count(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_orderkey = 42")
	for _, s := range pl.Slices[1:] {
		if len(s.Segments) == 1 && s.Segments[0] != plan.QDSegment {
			t.Errorf("join slice got direct dispatch:\n%s", pl.Explain())
		}
	}
}

func TestMasterOnlyQuery(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	pl := planOf(t, p, "SELECT 1 + 2")
	if len(pl.Slices) != 1 || !pl.Slices[0].OnQD() {
		t.Errorf("master-only query got %d slices:\n%s", len(pl.Slices), pl.Explain())
	}
}

func TestOrderByAddsSortAboveGather(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	pl := planOf(t, p, "SELECT o_custkey FROM orders ORDER BY o_custkey DESC LIMIT 7")
	// The pre-limit optimization sorts and limits per segment too.
	sorts, limits := 0, 0
	pl.Walk(func(n plan.Node) {
		switch n.(type) {
		case *plan.Sort:
			sorts++
		case *plan.Limit:
			limits++
		}
	})
	if sorts < 2 || limits < 2 {
		t.Errorf("sorts=%d limits=%d, want pre-limit + final:\n%s", sorts, limits, pl.Explain())
	}
}

func TestPlannerErrors(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	bad := []string{
		"SELECT nope FROM orders",
		"SELECT o_custkey FROM orders GROUP BY o_orderkey",     // non-grouped column
		"SELECT * FROM orders WHERE o_orderkey LIKE o_custkey", // LIKE needs literal
		"SELECT o_orderkey FROM orders ORDER BY 99",
		"SELECT * FROM orders, lineitem WHERE o_comment = l_orderkey AND missing = 1",
	}
	for _, sql := range bad {
		stmt, err := sqlparser.ParseOne(sql)
		if err != nil {
			continue
		}
		if _, err := p.PlanSelect(stmt.(*sqlparser.SelectStmt)); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
}

func TestSelfDescribedPlanCarriesSegFiles(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	// Register a segment file so the plan embeds it.
	cat := p.Cat
	mgr := tx.NewManager()
	tw := mgr.Begin(tx.ReadCommitted)
	desc, _ := cat.LookupTable(p.Snap, "orders")
	cat.AddSegFile(tw, catalog.SegFile{TableOID: desc.OID, SegmentID: 0, SegNo: 1, Path: "/p", LogicalLen: 123})
	tw.Commit()
	p.Snap = mgr.Begin(tx.ReadCommitted).Snapshot()

	pl := planOf(t, p, "SELECT count(*) FROM orders")
	found := false
	pl.Walk(func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && len(s.SegFiles) == 1 && s.SegFiles[0].LogicalLen == 123 {
			found = true
		}
	})
	if !found {
		t.Errorf("plan does not embed segment files:\n%s", pl.Explain())
	}
}

func TestSemiAndAntiJoinPlans(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	// IN subquery: semi join.
	pl := planOf(t, p, "SELECT o_custkey FROM orders WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_tax > 0.01)")
	semi := 0
	pl.Walk(func(n plan.Node) {
		if hj, ok := n.(*plan.HashJoin); ok && hj.Kind == plan.SemiJoin {
			semi++
		}
	})
	if semi != 1 {
		t.Errorf("semi joins = %d:\n%s", semi, pl.Explain())
	}
	// NOT EXISTS with equality correlation: anti join.
	pl = planOf(t, p, `SELECT o_custkey FROM orders
		WHERE NOT EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)`)
	anti := 0
	pl.Walk(func(n plan.Node) {
		if hj, ok := n.(*plan.HashJoin); ok && hj.Kind == plan.AntiJoin {
			anti++
		}
	})
	if anti != 1 {
		t.Errorf("anti joins = %d:\n%s", anti, pl.Explain())
	}
}

func TestPartitionPruningOperators(t *testing.T) {
	cat := catalog.New(tx.NewWAL())
	mgr := tx.NewManager()
	tr := mgr.Begin(tx.ReadCommitted)
	defer tr.Commit()
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt64},
		types.Column{Name: "d", Kind: types.KindDate},
	)
	parentOID, err := cat.CreateTable(tr, &catalog.TableDesc{
		Name: "p", Schema: schema, PartKind: catalog.PartRange, PartCol: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	months := []string{"2020-01-01", "2020-02-01", "2020-03-01", "2020-04-01"}
	for i := 0; i+1 < len(months); i++ {
		if _, err := cat.CreateTable(tr, &catalog.TableDesc{
			Name: fmt.Sprintf("p_1_prt_%d", i+1), Schema: schema,
			ParentOID: parentOID, PartKind: catalog.PartRange, PartCol: 1,
			RangeLo: types.MustParseDate(months[i]), RangeHi: types.MustParseDate(months[i+1]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	p := &Planner{Cat: cat, Snap: tr.Snapshot(), NumSegments: 2}
	parts := func(sql string) int {
		pl := planOf(t, p, sql)
		n := -1
		pl.Walk(func(node plan.Node) {
			if a, ok := node.(*plan.Append); ok {
				n = len(a.Inputs)
			}
		})
		return n
	}
	cases := []struct {
		where string
		want  int
	}{
		{"d = DATE '2020-02-15'", 1},
		{"d < DATE '2020-02-01'", 1},
		{"d <= DATE '2020-02-01'", 2},
		{"d >= DATE '2020-03-01'", 1},
		{"d > DATE '2020-03-31'", 0}, // beyond the last partition's end
		{"d >= DATE '2020-01-01'", 3},
		{"d BETWEEN DATE '2020-02-10' AND DATE '2020-02-20'", 1},
		{"d NOT BETWEEN DATE '2020-02-10' AND DATE '2020-02-20'", 3},
		{"id = 5", 3}, // non-partition column: no pruning
	}
	for _, c := range cases {
		if got := parts("SELECT count(*) FROM p WHERE " + c.where); got != c.want {
			t.Errorf("WHERE %s scans %d partitions, want %d", c.where, got, c.want)
		}
	}
	// Literal-on-the-left flips the comparison.
	if got := parts("SELECT count(*) FROM p WHERE DATE '2020-02-15' = d"); got != 1 {
		t.Errorf("flipped equality scans %d partitions, want 1", got)
	}
	p.DisablePartitionElim = true
	if got := parts("SELECT count(*) FROM p WHERE d = DATE '2020-02-15'"); got != 3 {
		t.Errorf("with elimination off: %d partitions, want 3", got)
	}
}

func TestDistinctPlans(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	// DISTINCT on a non-dist column forces a redistribute + unique.
	pl := planOf(t, p, "SELECT DISTINCT o_custkey FROM orders")
	uniques, redists := 0, 0
	pl.Walk(func(n plan.Node) {
		switch v := n.(type) {
		case *plan.Distinct:
			uniques++
		case *plan.Motion:
			if v.Type == plan.RedistributeMotion {
				redists++
			}
		}
	})
	if uniques != 1 || redists != 1 {
		t.Errorf("uniques=%d redists=%d:\n%s", uniques, redists, pl.Explain())
	}
	// DISTINCT on the dist key needs no motion before the unique.
	pl = planOf(t, p, "SELECT DISTINCT o_orderkey FROM orders")
	redists = 0
	pl.Walk(func(n plan.Node) {
		if v, ok := n.(*plan.Motion); ok && v.Type == plan.RedistributeMotion {
			redists++
		}
	})
	if redists != 0 {
		t.Errorf("dist-key DISTINCT redistributes:\n%s", pl.Explain())
	}
}

func TestScalarSubqueryInlined(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	called := false
	p.SubqueryEval = func(sub *sqlparser.SelectStmt) (types.Datum, error) {
		called = true
		return types.NewInt64(7), nil
	}
	pl := planOf(t, p, "SELECT count(*) FROM orders WHERE o_custkey > (SELECT 1)")
	if !called {
		t.Fatal("subquery evaluator not invoked")
	}
	// The subquery became a constant in the scan filter.
	found := false
	pl.Walk(func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && s.Filter != nil && strings.Contains(s.Filter.String(), "7") {
			found = true
		}
	})
	if !found {
		t.Errorf("constant not inlined:\n%s", pl.Explain())
	}
}

func TestDeferredDirectDispatchOnParam(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	// A generic plan pins the dist key with $1: the segment choice is
	// deferred to bind time, not lost.
	p.GenericParams = true
	pl := planOf(t, p, "SELECT * FROM orders WHERE o_orderkey = $1")
	p.GenericParams = false
	if len(pl.DeferredDirect) != 1 {
		t.Fatalf("deferred direct = %+v:\n%s", pl.DeferredDirect, pl.Explain())
	}
	dd := pl.DeferredDirect[0]
	if len(dd.Keys) != 1 || dd.Keys[0].Param != 0 {
		t.Fatalf("deferred keys = %+v", dd.Keys)
	}
	if got := len(pl.Slices[dd.SliceID].Segments); got != 4 {
		t.Fatalf("unbound generic plan segments = %d, want 4", got)
	}
	// Binding must pick exactly the segment the constant plan picks.
	want := planOf(t, p, "SELECT * FROM orders WHERE o_orderkey = 42")
	if err := pl.BindParams([]types.Datum{types.NewInt64(42)}); err != nil {
		t.Fatal(err)
	}
	got := pl.Slices[dd.SliceID].Segments
	if len(got) != 1 || got[0] != want.Slices[1].Segments[0] {
		t.Fatalf("bound segments = %v, constant plan = %v", got, want.Slices[1].Segments)
	}
	// The receiver's sender list shrinks with the gang.
	pl.Walk(func(n plan.Node) {
		if r, ok := n.(*plan.MotionRecv); ok && int(r.ID) == dd.SliceID {
			if len(r.Senders) != 1 || r.Senders[0] != got[0] {
				t.Fatalf("recv senders = %v, want %v", r.Senders, got)
			}
		}
	})
	// The distribution key referenced only by the filter: the scan
	// outputs (c_name, c_custkey), so the key sits at output position 1
	// while desc.Dist.Cols says table column 2. The deferred choice must
	// still be made, and land where the constant plan and the full-width
	// plan land.
	p.GenericParams = true
	pl = planOf(t, p, "SELECT c_name FROM customer WHERE c_custkey = $1")
	p.GenericParams = false
	if len(pl.DeferredDirect) != 1 {
		t.Fatalf("key referenced only by the filter: deferred direct = %+v:\n%s", pl.DeferredDirect, pl.Explain())
	}
	// Until it is bound the scan's filter is a residual; once bound it is
	// a constant comparison the vector kernels (and zone maps) consume.
	kernelized := func() bool {
		ok := false
		pl.Walk(func(n plan.Node) {
			if sc, isScan := n.(*plan.Scan); isScan {
				ok = sc.Filter != nil && expr.CompileFilter(sc.Filter).Residual() == nil
			}
		})
		return ok
	}
	if kernelized() {
		t.Fatal("unbound $1 filter reported kernelizable")
	}
	if err := pl.BindParams([]types.Datum{types.NewInt64(42)}); err != nil {
		t.Fatal(err)
	}
	if !kernelized() {
		t.Fatalf("bound $1 filter is still a residual:\n%s", pl.Explain())
	}
	got = pl.Slices[pl.DeferredDirect[0].SliceID].Segments
	for _, sql := range []string{"SELECT c_name FROM customer WHERE c_custkey = 42", "SELECT * FROM customer WHERE c_custkey = 42"} {
		want := planOf(t, p, sql).Slices[1].Segments
		if len(want) != 1 || !slices.Equal(got, want) {
			t.Fatalf("bound segments = %v, %q dispatches to %v", got, sql, want)
		}
	}
	// The key not referenced at all: nothing pins it, nothing is
	// deferred, the whole gang runs.
	p.GenericParams = true
	pl = planOf(t, p, "SELECT c_name FROM customer WHERE c_name = $1")
	if len(pl.DeferredDirect) != 0 || len(pl.Slices[1].Segments) != 4 {
		t.Fatalf("unreferenced key: deferred %+v, segments %v", pl.DeferredDirect, pl.Slices[1].Segments)
	}
	// With direct dispatch disabled nothing is deferred.
	p.DisableDirectDispatch = true
	pl = planOf(t, p, "SELECT * FROM orders WHERE o_orderkey = $1")
	if len(pl.DeferredDirect) != 0 {
		t.Fatalf("ablation still deferred: %+v", pl.DeferredDirect)
	}
}

// TestRefNamesMatchResolvedScope: refNames decides where an identifier
// binds before anything is planned, so the names it derives for a FROM
// item must be the names the planned item's scope really exposes — alias
// handling, `*` and `t.*` expansion and positional output names included.
// A name it missed would be taken for a reference to an enclosing block
// and its column pruned from under the subquery that uses it.
func TestRefNamesMatchResolvedScope(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Abort()
	for _, from := range []string{
		"orders",
		"orders o",
		"(SELECT o_orderkey AS k, o_custkey, o_orderkey + 1, count(*) FROM orders GROUP BY o_orderkey, o_custkey) d",
		"(SELECT * FROM tiny) d",
		"(SELECT t.*, l_tax FROM tiny t, lineitem WHERE t_k = l_orderkey) d",
		"(SELECT * FROM (SELECT t_name, t_k FROM tiny) x) d",
		"orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey",
		"orders o LEFT JOIN (SELECT * FROM tiny) d ON o.o_orderkey = d.t_k",
		"tiny RIGHT JOIN randtab ON t_k = r_orderkey",
	} {
		stmt, err := sqlparser.ParseOne("SELECT * FROM " + from)
		if err != nil {
			t.Fatalf("%s: %v", from, err)
		}
		sel := stmt.(*sqlparser.SelectStmt)
		ref := sel.From[0]
		u, err := p.newFromUnit(ref, p.blockRefs(sel))
		if err == nil {
			err = p.materialize(u)
		}
		if err != nil {
			t.Fatalf("%s: %v", from, err)
		}
		// Names only: a planned column also carries statistics and
		// nullability, which names cannot.
		want := map[scopeCol]int{}
		for _, c := range u.rel.cols {
			want[scopeCol{qual: c.qual, name: c.name}]++
		}
		got := map[scopeCol]int{}
		for _, c := range p.refNames(ref) {
			got[c]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: refNames %v, planned scope %v", from, p.refNames(ref), u.rel.cols)
		}
	}
}

// unsliced plans sql and returns its tree before slicing: motions keep
// their inputs, so a node's subtree is everything below it.
func unsliced(t *testing.T, p *Planner, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	p.st = nil
	rel, err := p.planQuery(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return rel.node
}

func walkTree(n plan.Node, fn func(plan.Node)) {
	fn(n)
	for _, c := range n.Children() {
		walkTree(c, fn)
	}
}

// scanFilters maps each scanned table of the subtree to its filter, ""
// for none.
func scanFilters(n plan.Node) map[string]string {
	out := map[string]string{}
	walkTree(n, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			out[s.Table.Name] = ""
			if s.Filter != nil {
				out[s.Table.Name] = s.Filter.String()
			}
		}
	})
	return out
}

// joinsOf returns the subtree's hash joins of one kind.
func joinsOf(n plan.Node, kind plan.JoinKind) []*plan.HashJoin {
	var out []*plan.HashJoin
	walkTree(n, func(n plan.Node) {
		if hj, ok := n.(*plan.HashJoin); ok && hj.Kind == kind {
			out = append(out, hj)
		}
	})
	return out
}

// TestOrImpliesScanFilters: an OR over two tables gives each table the OR
// of what every disjunct says about it alone, and stays as the residual.
// A disjunct that says nothing about a table leaves that table unfiltered.
func TestOrImpliesScanFilters(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	tree := unsliced(t, p, `SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey
		AND ((o_custkey = 1 AND l_partkey = 2) OR (o_custkey = 3 AND l_partkey = 4 AND o_comment = 'x'))`)
	want := map[string]string{
		"orders":   "((o_custkey = 1) OR ((o_custkey = 3) AND (o_comment = 'x')))",
		"lineitem": "((l_partkey = 2) OR (l_partkey = 4))",
	}
	if got := scanFilters(tree); !reflect.DeepEqual(got, want) {
		t.Errorf("scan filters %q, want %q", got, want)
	}
	residual := false
	walkTree(tree, func(n plan.Node) {
		if s, ok := n.(*plan.Select); ok && strings.Contains(s.Pred.String(), "(o_custkey = 1) AND (l_partkey = 2)") {
			residual = true
		}
	})
	if !residual {
		t.Error("the OR itself is not evaluated above the join")
	}
	// The second disjunct has no conjunct on orders: nothing is derived
	// for it. lineitem still gets (l_partkey = 2) OR (l_partkey = 4).
	tree = unsliced(t, p, `SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey
		AND ((o_custkey = 1 AND l_partkey = 2) OR l_partkey = 4)`)
	want = map[string]string{"orders": "", "lineitem": "((l_partkey = 2) OR (l_partkey = 4))"}
	if got := scanFilters(tree); !reflect.DeepEqual(got, want) {
		t.Errorf("scan filters %q, want %q", got, want)
	}
}

// TestOnConjunctPlacement: an ON conjunct over one side filters that
// side's input for an inner join, and for an outer join only on the
// nullable side; on the preserved side it stays in the join. A column
// only the pushed conjunct reads leaves nothing above the scan.
func TestOnConjunctPlacement(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	for _, c := range []struct {
		join    string
		filters map[string]string
		extra   string // the join's own predicate, "" for none
	}{
		{"orders LEFT JOIN lineitem", map[string]string{"orders": "", "lineitem": "(l_partkey = 9)"}, "(o_custkey = 7)"},
		{"orders RIGHT JOIN lineitem", map[string]string{"orders": "(o_custkey = 7)", "lineitem": ""}, "(l_partkey = 9)"},
		{"orders JOIN lineitem", map[string]string{"orders": "(o_custkey = 7)", "lineitem": "(l_partkey = 9)"}, ""},
	} {
		tree := unsliced(t, p, "SELECT o_orderkey, l_tax FROM "+c.join+
			" ON o_orderkey = l_orderkey AND l_partkey = 9 AND o_custkey = 7")
		if got := scanFilters(tree); !reflect.DeepEqual(got, c.filters) {
			t.Errorf("%s: scan filters %q, want %q", c.join, got, c.filters)
		}
		var joins []*plan.HashJoin
		walkTree(tree, func(n plan.Node) {
			if hj, ok := n.(*plan.HashJoin); ok {
				joins = append(joins, hj)
			}
		})
		if len(joins) != 1 {
			t.Fatalf("%s: %d hash joins", c.join, len(joins))
		}
		extra := ""
		if joins[0].ExtraPred != nil {
			extra = joins[0].ExtraPred.String()
		}
		if extra != c.extra {
			t.Errorf("%s: join predicate %q, want %q", c.join, extra, c.extra)
		}
		for _, in := range joins[0].Children() {
			for _, name := range in.OutSchema().Names() {
				if (name == "l_partkey" && c.filters["lineitem"] != "") || (name == "o_custkey" && c.filters["orders"] != "") {
					t.Errorf("%s: join input carries %s, which only its pushed filter reads", c.join, name)
				}
			}
		}
	}
}

// TestSemiJoinPlacement: a subquery predicate whose outer references all
// bind to one table filters that table before the join; one that reads
// two tables stays above their join.
func TestSemiJoinPlacement(t *testing.T) {
	p, tr := fixture(t)
	defer tr.Commit()
	tree := unsliced(t, p, `SELECT o_custkey FROM orders, lineitem WHERE o_orderkey = l_orderkey
		AND o_custkey IN (SELECT t_k FROM tiny WHERE t_name = 'x')`)
	semis := joinsOf(tree, plan.SemiJoin)
	if len(semis) != 1 {
		t.Fatalf("%d semi joins", len(semis))
	}
	if got := scanFilters(semis[0].Left); !reflect.DeepEqual(got, map[string]string{"orders": ""}) {
		t.Errorf("the semi join's outer input scans %q, want orders alone", got)
	}
	if inner := joinsOf(tree, plan.InnerJoin); len(inner) != 1 || len(joinsOf(inner[0], plan.SemiJoin)) != 1 {
		t.Error("the semi join is not below the inner join")
	}
	tree = unsliced(t, p, `SELECT o_custkey FROM orders, lineitem WHERE o_orderkey = l_orderkey
		AND EXISTS (SELECT 1 FROM randtab WHERE r_orderkey = o_custkey AND r_v = l_partkey)`)
	semis = joinsOf(tree, plan.SemiJoin)
	if len(semis) != 1 {
		t.Fatalf("%d semi joins", len(semis))
	}
	if got := scanFilters(semis[0].Left); len(got) != 2 || len(joinsOf(semis[0].Left, plan.InnerJoin)) != 1 {
		t.Errorf("a two-table EXISTS sits below the join: its outer input scans %q", got)
	}
}

// TestDateConstantComparisons: a comparison with a DATE on either side
// binds whatever the other side is — a string literal, coerced to a date,
// another DATE literal, or a scalar subquery folded to a date — and folds
// to its answer.
func TestDateConstantComparisons(t *testing.T) {
	maxDate, err := types.Cast(types.NewString("1998-08-02"), types.KindDate)
	if err != nil {
		t.Fatal(err)
	}
	b := &binder{
		scope:    &scope{schema: types.NewSchema()},
		subquery: func(*sqlparser.SelectStmt) (types.Datum, error) { return maxDate, nil },
	}
	for _, c := range []struct {
		e    string
		want bool
	}{
		{"DATE '1995-01-01' < DATE '1996-01-01'", true},
		{"DATE '1995-01-01' = DATE '1995-01-01'", true},
		{"DATE '1996-01-01' <= DATE '1995-01-01'", false},
		{"'1995-01-01' < DATE '1996-01-01'", true},
		{"DATE '1995-01-01' > '1996-01-01'", false},
		{"(SELECT max(o_orderdate) FROM orders) > DATE '1998-01-01'", true},
		{"DATE '1998-01-01' >= (SELECT max(o_orderdate) FROM orders)", false},
	} {
		stmt, err := sqlparser.ParseOne("SELECT " + c.e)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		bound, err := b.bind(stmt.(*sqlparser.SelectStmt).Projections[0].Expr)
		if err != nil {
			t.Errorf("%s: %v", c.e, err)
			continue
		}
		got, err := bound.Eval(nil)
		if err != nil || got.IsNull() || got.Bool() != c.want {
			t.Errorf("%s = %v (%v), want %v", c.e, got, err, c.want)
		}
	}
}
