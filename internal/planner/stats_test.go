package planner

import (
	"math"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// TestTableRowsDistinguishesAnalyzedEmpty is the regression test for
// the analyzed-but-empty fallthrough: RelStats.Rows == 0 used to be
// treated as "never analyzed" and inflated to the 1000-row default,
// dragging join orders with it.
func TestTableRowsDistinguishesAnalyzedEmpty(t *testing.T) {
	cat := catalog.New(tx.NewWAL())
	mgr := tx.NewManager()
	tr := mgr.Begin(tx.ReadCommitted)
	defer tr.Abort()
	mk := func(name string) *catalog.TableDesc {
		desc := &catalog.TableDesc{
			Name:    name,
			Schema:  &types.Schema{Columns: []types.Column{{Name: "k", Kind: types.KindInt64}}},
			Dist:    catalog.DistPolicy{Cols: []int{0}},
			Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
		}
		if _, err := cat.CreateTable(tr, desc); err != nil {
			t.Fatal(err)
		}
		return desc
	}

	analyzedEmpty := mk("analyzed_empty")
	cat.SetRelStats(tr, analyzedEmpty.OID, catalog.RelStats{Rows: 0})

	analyzedFull := mk("analyzed_full")
	cat.SetRelStats(tr, analyzedFull.OID, catalog.RelStats{Rows: 250})

	loaded := mk("loaded_unanalyzed")
	cat.AddSegFile(tr, catalog.SegFile{TableOID: loaded.OID, SegmentID: 0, SegNo: 1,
		Path: "/t/1", LogicalLen: 640, Tuples: 40})
	cat.AddSegFile(tr, catalog.SegFile{TableOID: loaded.OID, SegmentID: 1, SegNo: 1,
		Path: "/t/2", LogicalLen: 320, Tuples: 20})

	unknown := mk("unknown")

	p := &Planner{Cat: cat, Snap: tr.Snapshot(), NumSegments: 2}
	cases := []struct {
		desc *catalog.TableDesc
		want float64
	}{
		// Analyzed, empty: a known-empty table estimates 1, not 1000.
		{analyzedEmpty, 1},
		{analyzedFull, 250},
		// Never analyzed but loaded: segfile tuple counts.
		{loaded, 60},
		// Never analyzed, never loaded: the default.
		{unknown, 1000},
	}
	for _, c := range cases {
		if got := p.tableRows(c.desc); got != c.want {
			t.Errorf("tableRows(%s) = %v, want %v", c.desc.Name, got, c.want)
		}
	}
}

// relOf is a relation of rows rows whose columns carry the statistics
// sts (nil: not analyzed); estimators read nothing else.
func relOf(rows float64, sts ...*catalog.ColStats) *relation {
	rel := &relation{rows: rows}
	for _, st := range sts {
		rel.cols = append(rel.cols, scopeCol{st: st})
	}
	return rel
}

func colRef(i int, k types.Kind) *expr.ColRef { return &expr.ColRef{Idx: i, K: k} }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestJoinRowsFromDistinctCounts: a foreign-key join keeps the many
// side's rows. customer ⋈ nation on c_nationkey = n_nationkey, both 25
// distinct values, is 750 rows; the textbook min(|L|, |R|) said 25,
// which stays the estimate when nothing was analyzed.
func TestJoinRowsFromDistinctCounts(t *testing.T) {
	nk := &catalog.ColStats{NDistinct: 25}
	customer, nation := relOf(750, nk), relOf(25, nk)
	if got := joinRows(customer, nation, []int{0}, []int{0}); got != 750 {
		t.Errorf("customer ⋈ nation = %v rows, want 750", got)
	}
	if got := joinRows(relOf(750, nil), relOf(25, nil), []int{0}, []int{0}); got != 25 {
		t.Errorf("un-ANALYZEd customer ⋈ nation = %v rows, want the fallback 25", got)
	}
	// A side's distinct count never exceeds its rows: 3 filtered nations
	// hold at most 3 keys.
	if got := joinRows(customer, relOf(3, nk), []int{0}, []int{0}); got != 90 {
		t.Errorf("customer ⋈ 3 nations = %v rows, want 90", got)
	}
	// Groups: the key's distinct count, or a tenth of the rows unknown.
	groups := []expr.Expr{colRef(0, types.KindInt32)}
	if got := groupRows(customer, groups); got != 25 {
		t.Errorf("customer GROUP BY c_nationkey = %v groups, want 25", got)
	}
	if got := groupRows(relOf(750, nil), groups); got != 75 {
		t.Errorf("un-ANALYZEd GROUP BY = %v groups, want the fallback 75", got)
	}
}

// TestSelectivityFromStatistics: equality on a column keeps (1 −
// NullFrac)/NDistinct, range bounds on one column are interpolated over
// [Min, Max] together, and an un-ANALYZEd column keeps the System R
// constants.
func TestSelectivityFromStatistics(t *testing.T) {
	name := &catalog.ColStats{NDistinct: 25, NullFrac: 0.2}
	d := types.MustParseDate
	date := &catalog.ColStats{NDistinct: 2400, Min: d("1992-01-01"), Max: d("1998-08-02")}
	cols := []scopeCol{{st: name}, {st: date}, {}}
	eq := expr.NewBinOp(expr.OpEq, colRef(0, types.KindString), expr.NewConst(types.NewString("FRANCE")))
	if got := selectivity(eq, cols); !near(got, 0.8/25) {
		t.Errorf("n_name = 'FRANCE' keeps %v, want %v", got, 0.8/25)
	}
	or := expr.NewBinOp(expr.OpOr, eq, expr.NewBinOp(expr.OpEq, expr.NewConst(types.NewString("GERMANY")), colRef(0, types.KindString)))
	if got := selectivity(or, cols); !near(got, 2*0.8/25) {
		t.Errorf("two names keep %v, want %v", got, 2*0.8/25)
	}
	// Q10's quarter of o_orderdate: the two bounds together, not the
	// product of two halves.
	lo, hi := d("1993-10-01"), d("1994-01-01")
	quarter := expr.NewBinOp(expr.OpAnd,
		expr.NewBinOp(expr.OpGe, colRef(1, types.KindDate), expr.NewConst(lo)),
		expr.NewBinOp(expr.OpLt, colRef(1, types.KindDate), expr.NewConst(hi)))
	want := float64(hi.I-lo.I) / float64(date.Max.I-date.Min.I)
	if got := selectivity(quarter, cols); !near(got, want) {
		t.Errorf("a quarter of o_orderdate keeps %v, want %v", got, want)
	}
	between := &expr.Between{E: colRef(1, types.KindDate), Lo: expr.NewConst(lo), Hi: expr.NewConst(hi)}
	if got := selectivity(between, cols); !near(got, want) {
		t.Errorf("BETWEEN keeps %v, want %v", got, want)
	}
	// Past the maximum nothing is left.
	late := expr.NewBinOp(expr.OpLt, expr.NewConst(d("1999-01-01")), colRef(1, types.KindDate))
	if got := selectivity(late, cols); got != 0 {
		t.Errorf("o_orderdate > 1999-01-01 keeps %v, want 0", got)
	}
	// Not analyzed: the constants.
	eq2 := expr.NewBinOp(expr.OpEq, colRef(2, types.KindInt64), expr.NewConst(types.NewInt64(5)))
	rng := expr.NewBinOp(expr.OpAnd,
		expr.NewBinOp(expr.OpGe, colRef(2, types.KindInt64), expr.NewConst(types.NewInt64(1))),
		expr.NewBinOp(expr.OpLt, colRef(2, types.KindInt64), expr.NewConst(types.NewInt64(9))))
	for _, c := range []struct {
		e    expr.Expr
		want float64
	}{{eq2, 0.05}, {rng, 0.09}, {&expr.Like{E: colRef(2, types.KindString), Pattern: "x%"}, 0.15}} {
		if got := selectivity(c.e, cols); !near(got, c.want) {
			t.Errorf("un-ANALYZEd %s keeps %v, want %v", c.e, got, c.want)
		}
	}
}

// TestNullabilityFacts: NOT IN plans its NULL facts only where a side can
// be NULL — a nullable column, the nullable side of a LEFT JOIN, an
// external table whatever its DDL says, an aggregate other than count —
// and count(c) of a NOT NULL c is count(*).
func TestNullabilityFacts(t *testing.T) {
	cat := catalog.New(tx.NewWAL())
	tr := tx.NewManager().Begin(tx.ReadCommitted)
	defer tr.Abort()
	schema := func() *types.Schema {
		return types.NewSchema(types.Column{Name: "x", Kind: types.KindInt64, NotNull: true}, types.Column{Name: "y", Kind: types.KindInt64})
	}
	for _, desc := range []*catalog.TableDesc{
		{Name: "a", Schema: schema(), Dist: catalog.DistPolicy{Cols: []int{0}}},
		{Name: "b", Schema: schema(), Dist: catalog.DistPolicy{Cols: []int{0}}},
		{Name: "ext", Schema: schema(), Location: "pxf://host/path", Format: "TEXT"},
	} {
		if _, err := cat.CreateTable(tr, desc); err != nil {
			t.Fatal(err)
		}
	}
	p := &Planner{Cat: cat, Snap: tr.Snapshot(), NumSegments: 2}
	antis := func(pl *plan.Plan) int {
		n := 0
		pl.Walk(func(node plan.Node) {
			if j, ok := node.(*plan.HashJoin); ok && j.Kind == plan.AntiJoin {
				n++
			}
			if j, ok := node.(*plan.NestLoopJoin); ok && j.Kind == plan.AntiJoin {
				n++
			}
		})
		return n
	}
	for _, c := range []struct {
		sql   string
		facts bool
	}{
		{"SELECT x FROM a WHERE x NOT IN (SELECT x FROM b)", false},
		{"SELECT x FROM a WHERE y NOT IN (SELECT x FROM b)", true},
		{"SELECT x FROM a WHERE x NOT IN (SELECT y FROM b)", true},
		{"SELECT a.x FROM a LEFT JOIN b ON a.y = b.y WHERE b.x NOT IN (SELECT x FROM b)", true},
		{"SELECT x FROM a WHERE x NOT IN (SELECT b.x FROM a LEFT JOIN b ON a.y = b.y)", true},
		{"SELECT x FROM a WHERE x NOT IN (SELECT x FROM ext)", true},
		{"SELECT x FROM a WHERE x NOT IN (SELECT max(x) FROM b)", true},
		{"SELECT x FROM a WHERE x NOT IN (SELECT count(y) FROM b)", false},
	} {
		if got := antis(planOf(t, p, c.sql)) == 2; got != c.facts {
			t.Errorf("%s: NULL facts planned = %v, want %v", c.sql, got, c.facts)
		}
	}
	counts := func(sql string) (stars, cols int) {
		planOf(t, p, sql).Walk(func(node plan.Node) {
			if a, ok := node.(*plan.HashAgg); ok && a.Phase != plan.AggFinal {
				for _, s := range a.Aggs {
					switch s.Kind {
					case expr.AggCountStar:
						stars++
					case expr.AggCount:
						cols++
					}
				}
			}
		})
		return stars, cols
	}
	for _, c := range []struct {
		sql         string
		stars, cols int
	}{
		{"SELECT count(x), count(y) FROM a", 1, 1},
		{"SELECT count(b.x) FROM a LEFT JOIN b ON a.y = b.y", 0, 1},
		{"SELECT count(x) FROM ext", 0, 1},
		{"SELECT count(DISTINCT x) FROM a", 0, 1},
	} {
		if stars, cols := counts(c.sql); stars != c.stars || cols != c.cols {
			t.Errorf("%s: %d count(*) and %d count(c), want %d and %d", c.sql, stars, cols, c.stars, c.cols)
		}
	}
}
