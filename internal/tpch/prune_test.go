package tpch

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hawq/internal/engine"
	"hawq/internal/plan"
	"hawq/internal/planner"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// planStmt plans one statement against the engine's catalog the way a
// session would (scalar subqueries run through sub), generically when
// the text has placeholders.
func planStmt(t *testing.T, e *engine.Engine, sql string) *plan.Plan {
	t.Helper()
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	cl := e.Cluster()
	sub := e.NewSession()
	tr := cl.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Abort()
	p := &planner.Planner{Cat: cl.Cat(), Snap: tr.Snapshot(), NumSegments: cl.NumSegments()}
	p.SubqueryEval = func(s *sqlparser.SelectStmt) (types.Datum, error) {
		res, err := sub.Query(s.String())
		if err != nil || len(res.Rows) == 0 {
			return types.Null, err
		}
		return res.Rows[0][0], nil
	}
	var pl *plan.Plan
	switch v := stmt.(type) {
	case *sqlparser.SelectStmt:
		p.GenericParams = sqlparser.MaxParam(v) > 0
		pl, err = p.PlanSelect(v)
	case *sqlparser.InsertStmt:
		desc, lerr := cl.Cat().LookupTable(p.Snap, v.Table)
		if lerr != nil {
			t.Fatal(lerr)
		}
		pl, err = p.PlanInsert(v, []plan.InsertTarget{{Table: desc}}, 1)
	default:
		t.Fatalf("%s: unsupported statement %T", sql, stmt)
	}
	if err != nil {
		t.Fatalf("%s: plan: %v", sql, err)
	}
	return pl
}

// scanColumns renders every scan of a plan as "table(col col ...)" in
// output order — a partitioned table's as "table[n parts](...)" — sorted so join order does not matter. The names come
// from the table descriptor through Proj, and must agree with the
// scan's own schema.
func scanColumns(t *testing.T, pl *plan.Plan) []string {
	t.Helper()
	var out []string
	pl.Walk(func(n plan.Node) {
		var name string
		var table, schema *types.Schema
		var proj []int
		switch s := n.(type) {
		case *plan.Scan:
			name, table, schema, proj = s.Table.Name, s.Table.Schema, s.Schema, s.Proj
			if s.Table.IsPartitionParent() {
				name += fmt.Sprintf("[%d parts]", s.Parts)
			}
		case *plan.ExternalScan:
			name, table, schema, proj = s.Table.Name, s.Table.Schema, s.Schema, s.Proj
		default:
			return
		}
		cols := table.Project(proj).Names()
		if !reflect.DeepEqual(cols, schema.Names()) {
			t.Errorf("scan of %s: Proj %v names %v, Schema says %v", name, proj, cols, schema.Names())
		}
		if !sort.IntsAreSorted(proj) {
			t.Errorf("scan of %s: Proj %v not in table order", name, proj)
		}
		out = append(out, fmt.Sprintf("%s(%s)", name, strings.Join(cols, " ")))
	})
	sort.Strings(out)
	return out
}

// tpchScans is, per TPC-H query, every base-table scan of the plan with
// exactly the columns that query block references: select list, pushed
// and residual predicates, join keys, group and order keys, aggregate
// arguments, and the correlated references of EXISTS / IN subqueries.
// A table scanned in two blocks (Q2, Q17, Q18, Q21) gets each block's
// own set, and the magic set of a grouped derived table (planner.magicSet)
// scans its filtered table a second time for the keys: part in Q2, Q17
// and Q20, orders in each of Q21's two.
// Q16's NOT IN reads NOT NULL columns only, so it plans no NULL facts.
// Scalar subqueries (Q11, Q15, Q22) are planned as statements of their
// own and do not appear.
var tpchScans = map[int][]string{
	1: {"lineitem(l_quantity l_extendedprice l_discount l_tax l_returnflag l_linestatus l_shipdate)"},
	2: {"nation(n_nationkey n_name n_regionkey)", "nation(n_nationkey n_regionkey)",
		"part(p_partkey p_mfgr p_type p_size)", "part(p_partkey p_type p_size)",
		"partsupp(ps_partkey ps_suppkey ps_supplycost)", "partsupp(ps_partkey ps_suppkey ps_supplycost)",
		"region(r_regionkey r_name)", "region(r_regionkey r_name)",
		"supplier(s_suppkey s_name s_address s_nationkey s_phone s_acctbal s_comment)", "supplier(s_suppkey s_nationkey)"},
	3: {"customer(c_custkey c_mktsegment)", "lineitem(l_orderkey l_extendedprice l_discount l_shipdate)",
		"orders(o_orderkey o_custkey o_orderdate o_shippriority)"},
	4: {"lineitem(l_orderkey l_commitdate l_receiptdate)", "orders(o_orderkey o_orderdate o_orderpriority)"},
	5: {"customer(c_custkey c_nationkey)", "lineitem(l_orderkey l_suppkey l_extendedprice l_discount)",
		"nation(n_nationkey n_name n_regionkey)", "orders(o_orderkey o_custkey o_orderdate)",
		"region(r_regionkey r_name)", "supplier(s_suppkey s_nationkey)"},
	6: {"lineitem(l_quantity l_extendedprice l_discount l_shipdate)"},
	7: {"customer(c_custkey c_nationkey)", "lineitem(l_orderkey l_suppkey l_extendedprice l_discount l_shipdate)",
		"nation(n_nationkey n_name)", "nation(n_nationkey n_name)", "orders(o_orderkey o_custkey)",
		"supplier(s_suppkey s_nationkey)"},
	8: {"customer(c_custkey c_nationkey)", "lineitem(l_orderkey l_partkey l_suppkey l_extendedprice l_discount)",
		"nation(n_nationkey n_name)", "nation(n_nationkey n_regionkey)", "orders(o_orderkey o_custkey o_orderdate)",
		"part(p_partkey p_type)", "region(r_regionkey r_name)", "supplier(s_suppkey s_nationkey)"},
	9: {"lineitem(l_orderkey l_partkey l_suppkey l_quantity l_extendedprice l_discount)", "nation(n_nationkey n_name)",
		"orders(o_orderkey o_orderdate)", "part(p_partkey p_name)", "partsupp(ps_partkey ps_suppkey ps_supplycost)",
		"supplier(s_suppkey s_nationkey)"},
	10: {"customer(c_custkey c_name c_address c_nationkey c_phone c_acctbal c_comment)",
		"lineitem(l_orderkey l_extendedprice l_discount l_returnflag)", "nation(n_nationkey n_name)",
		"orders(o_orderkey o_custkey o_orderdate)"},
	11: {"nation(n_nationkey n_name)", "partsupp(ps_partkey ps_suppkey ps_availqty ps_supplycost)",
		"supplier(s_suppkey s_nationkey)"},
	12: {"lineitem(l_orderkey l_shipdate l_commitdate l_receiptdate l_shipmode)", "orders(o_orderkey o_orderpriority)"},
	13: {"customer(c_custkey)", "orders(o_orderkey o_custkey o_comment)"},
	14: {"lineitem(l_partkey l_extendedprice l_discount l_shipdate)", "part(p_partkey p_type)"},
	15: {"lineitem(l_suppkey l_extendedprice l_discount l_shipdate)", "supplier(s_suppkey s_name s_address s_phone)"},
	16: {"part(p_partkey p_brand p_type p_size)", "partsupp(ps_partkey ps_suppkey)", "supplier(s_suppkey s_comment)"},
	17: {"lineitem(l_partkey l_quantity l_extendedprice)", "lineitem(l_partkey l_quantity)",
		"part(p_partkey p_brand p_container)", "part(p_partkey p_brand p_container)"},
	18: {"customer(c_custkey c_name)", "lineitem(l_orderkey l_quantity)", "lineitem(l_orderkey l_quantity)",
		"orders(o_orderkey o_custkey o_totalprice o_orderdate)"},
	19: {"lineitem(l_partkey l_quantity l_extendedprice l_discount l_shipinstruct l_shipmode)",
		"part(p_partkey p_brand p_size p_container)"},
	20: {"lineitem(l_partkey l_quantity l_shipdate)", "nation(n_nationkey n_name)", "part(p_partkey p_name)",
		"part(p_partkey p_name)", "partsupp(ps_partkey ps_suppkey ps_availqty)", "supplier(s_suppkey s_name s_address s_nationkey)"},
	21: {"lineitem(l_orderkey l_suppkey l_commitdate l_receiptdate)", "lineitem(l_orderkey l_suppkey l_commitdate l_receiptdate)",
		"lineitem(l_orderkey l_suppkey)", "nation(n_nationkey n_name)", "orders(o_orderkey o_orderstatus)",
		"orders(o_orderkey o_orderstatus)", "orders(o_orderkey o_orderstatus)", "supplier(s_suppkey s_name s_nationkey)"},
	22: {"customer(c_custkey c_phone c_acctbal)", "orders(o_custkey)"},
}

// TestScanProjectionsAreExact: every scan produces each column its
// query block references and no other — the planner decides a scan's
// columns, nothing above the scan narrows anything afterwards.
func TestScanProjectionsAreExact(t *testing.T) {
	e, _ := loadedEngine(t, 4, LoadOptions{Scale: Scale{SF: testSF}, Orientation: "row", CompressType: "quicklz"})
	s := e.NewSession()
	for _, ddl := range []string{
		`CREATE TABLE sales (id INT8, date DATE, amt DECIMAL(10,2), note TEXT) DISTRIBUTED BY (id)
			PARTITION BY RANGE (date) (START (DATE '2008-01-01') INCLUSIVE
			END (DATE '2008-04-01') EXCLUSIVE EVERY (INTERVAL '1 month'))`,
		`CREATE EXTERNAL TABLE clicks (who TEXT, n INT8, note TEXT)
			LOCATION ('pxf://svc/lake/clicks?profile=text') FORMAT 'CUSTOM'`,
		`CREATE TABLE nation_copy (n_nationkey INT8, n_name TEXT, n_regionkey INT8, n_comment TEXT) DISTRIBUTED BY (n_nationkey)`,
		`CREATE TABLE pairs (a INT8, b INT8) DISTRIBUTED BY (a)`,
	} {
		if _, err := s.Query(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	type tc struct {
		name, sql string
		want      []string
	}
	cases := []tc{
		{"serve_point prepared point", "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = $1",
			[]string{"customer(c_custkey c_name c_acctbal)"}},
		{"serve_point text point", "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 42",
			[]string{"customer(c_custkey c_name c_acctbal)"}},
		{"serve_point fanout", "SELECT count(*) FROM orders WHERE o_custkey = $1",
			[]string{"orders(o_custkey)"}},
		{"select star", "SELECT * FROM nation",
			[]string{"nation(n_nationkey n_name n_regionkey n_comment)"}},
		{"table star", "SELECT r.*, n_name FROM nation, region r WHERE n_regionkey = r_regionkey",
			[]string{"nation(n_name n_regionkey)", "region(r_regionkey r_name r_comment)"}},
		{"count star", "SELECT count(*) FROM lineitem", []string{"lineitem()"}},
		{"zero-column join side", "SELECT n_name FROM nation, region", []string{"nation(n_name)", "region()"}},
		{"derived table drops unused outputs",
			"SELECT x.k FROM (SELECT o_orderkey AS k, o_comment AS c, o_totalprice AS p FROM orders) x WHERE x.p > 1000",
			[]string{"orders(o_orderkey o_totalprice)"}},
		{"ungrouped aggregate derived table, aggregate unused",
			"SELECT x.five FROM (SELECT count(*) AS c, 5 AS five FROM nation) x", []string{"nation()"}},
		{"ungrouped aggregate derived table, nothing used",
			"SELECT count(*) FROM (SELECT 5 AS five, count(*) AS c FROM nation) x", []string{"nation()"}},
		{"ungrouped aggregate derived table, one aggregate used",
			"SELECT x.s FROM (SELECT sum(n_regionkey) AS s, max(n_name) AS m FROM nation) x", []string{"nation(n_regionkey)"}},
		{"self-join aliases",
			"SELECT n1.n_name FROM nation n1, nation n2 WHERE n1.n_regionkey = n2.n_nationkey AND n2.n_comment LIKE 'x%'",
			[]string{"nation(n_name n_regionkey)", "nation(n_nationkey n_comment)"}},
		{"correlated subquery shadows the outer column",
			"SELECT o_orderkey FROM orders WHERE EXISTS (SELECT 1 FROM orders o2 WHERE o2.o_custkey = orders.o_orderkey AND o_totalprice > 5)",
			[]string{"orders(o_custkey o_totalprice)", "orders(o_orderkey)"}},
		{"partitioned parent", "SELECT sum(amt) FROM sales WHERE date >= DATE '2008-02-01'",
			[]string{"sales[2 parts](date amt)"}},
		{"external table", "SELECT sum(n) FROM clicks WHERE who = 'ann'", []string{"clicks(who n)"}},
		{"insert select star", "INSERT INTO nation_copy SELECT * FROM nation",
			[]string{"nation(n_nationkey n_name n_regionkey n_comment)"}},
		{"insert select columns", "INSERT INTO pairs SELECT n_nationkey, n_regionkey FROM nation",
			[]string{"nation(n_nationkey n_regionkey)"}},
	}
	for _, q := range AllQueryNumbers() {
		cases = append(cases, tc{fmt.Sprintf("Q%d", q), Queries[q], tpchScans[q]})
	}
	for _, c := range cases {
		got := scanColumns(t, planStmt(t, e, c.sql))
		want := append([]string{}, c.want...)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scans\n got %q\nwant %q", c.name, got, want)
		}
	}
	// The two the issue sizes: Q6 reads 4 of lineitem's 16 columns, Q1 7.
	for q, k := range map[int]int{6: 4, 1: 7} {
		if want := fmt.Sprintf("cols=%d/16", k); !strings.Contains(planStmt(t, e, Queries[q]).Explain(), want) {
			t.Errorf("Q%d: EXPLAIN does not show %s", q, want)
		}
	}
	// Partition elimination compares the filter column with PartCol, a
	// table index, through a scope that now holds output positions.
	pl := planStmt(t, e, "SELECT sum(amt) FROM sales WHERE date = DATE '2008-03-15'")
	if got := scanColumns(t, pl); !reflect.DeepEqual(got, []string{"sales[1 parts](date amt)"}) {
		t.Errorf("partition elimination under a narrow scan kept %q", got)
	}
	// And the narrow plans still answer: zero-width rows keep their count
	// through a cross join and its broadcast motion.
	res, err := s.Query("SELECT n_name FROM nation, region")
	if err != nil || len(res.Rows) != 25*5 {
		t.Errorf("zero-column join side returned %d rows, err %v; want 125", len(res.Rows), err)
	}
	// A derived table that aggregates without GROUP BY is one row however
	// few of its outputs are used: dropping its last aggregate would turn
	// it into a scan of nation's 25 rows.
	for _, c := range []struct {
		sql   string
		rows  int
		first string
	}{
		{"SELECT x.five FROM (SELECT count(*) AS c, 5 AS five FROM nation) x", 1, "5"},
		{"SELECT count(*) FROM (SELECT 5 AS five, count(*) AS c FROM nation) x", 1, "1"},
		{"SELECT x.five FROM (SELECT 5 AS five, n_name FROM nation) x", 25, "5"},
	} {
		res, err := s.Query(c.sql)
		if err != nil || len(res.Rows) != c.rows || res.Rows[0][0].String() != c.first {
			t.Errorf("%s: rows %v, err %v; want %d rows of %s", c.sql, res.Rows, err, c.rows, c.first)
		}
	}
}

// tpchShapes is each TPC-H plan's slice count and motion kinds
// (Broadcast / Gather / Redistribute, sorted). One per query: the greedy
// join order breaks cost ties by FROM position. Predicate placement
// (DESIGN.md §18) moved three: Q16's NOT IN gathered and broadcast its
// NULL facts, Q18's IN filters orders before customer joins it (3:BG →
// 4:GRR), and Q19's OR gives part a filter that makes it the broadcast
// side (3:GR → 3:BG). Costing from statistics (§19) moved ten: join
// order and sides by estimated bytes (Q5, Q7, Q8, Q9, Q10, Q11), a magic
// set's broadcast keys (Q2, Q17, Q20), and Q16's NOT IN over NOT NULL
// columns, which needs no facts (6:BBGGR → 4:BGR).
var tpchShapes = map[int]string{
	1: "3:GR", 2: "9:BBGRRRRR", 3: "3:BG", 4: "3:GR", 5: "8:BBGRRRR", 6: "2:G", 7: "7:BBBGRR",
	8: "10:BBBBGRRRR", 9: "7:BBBGRR", 10: "4:BGR", 11: "4:BGR", 12: "3:GR",
	13: "4:GRR", 14: "3:GR", 15: "3:GR", 16: "4:BGR", 17: "6:BBBGR", 18: "4:GRR",
	19: "3:BG", 20: "6:BBGRR", 21: "5:BBGR", 22: "4:GRR",
}

// TestPruningKeepsPlanShape: narrowing scans moves no motion. Colocation
// and the join-key equivalence classes still see the distribution keys
// (every key a plan decision rests on is referenced, hence output), so
// slice counts and motion kinds are what they were, and a query with one
// plan still has one.
func TestPruningKeepsPlanShape(t *testing.T) {
	e, _ := loadedEngine(t, 4, LoadOptions{Scale: Scale{SF: testSF}, Orientation: "row", CompressType: "quicklz"})
	for _, q := range AllQueryNumbers() {
		pl := planStmt(t, e, Queries[q])
		var kinds []string
		for _, s := range pl.Slices {
			if m, ok := s.Root.(*plan.Motion); ok {
				kinds = append(kinds, m.Type.String()[:1])
			}
		}
		sort.Strings(kinds)
		if shape := fmt.Sprintf("%d:%s", len(pl.Slices), strings.Join(kinds, "")); shape != tpchShapes[q] {
			t.Errorf("Q%d: plan shape %s, want %s", q, shape, tpchShapes[q])
		}
	}
}

// TestPlanningIsDeterministic: one statement over one snapshot has one
// plan. Every TPC-H query is planned twenty times and must render the
// same EXPLAIN text each time — Q2, Q5, Q8, Q9 and Q21 drew two to six
// join orders when the greedy merge ranged over a map of candidates.
func TestPlanningIsDeterministic(t *testing.T) {
	e, _ := loadedEngine(t, 4, LoadOptions{Scale: Scale{SF: testSF}, Orientation: "row", CompressType: "quicklz"})
	for _, q := range AllQueryNumbers() {
		first := planStmt(t, e, Queries[q]).Explain()
		for rep := 1; rep < 20; rep++ {
			if again := planStmt(t, e, Queries[q]).Explain(); again != first {
				t.Errorf("Q%d: planning %d drew another plan:\n%s\nthe first was:\n%s", q, rep+1, again, first)
				break
			}
		}
	}
}

// TestFoldedConstantsAndSharedPartials pins two lines of EXPLAIN: the
// binder folds literal arithmetic, so Q1's cutoff and Q6's bounds are
// values a zone map and a filter kernel can take, and the partial phase
// computes an aggregate once however many of the query's read it — 9 for
// Q1's 10 aggregates, sum and count of each averaged column shared.
func TestFoldedConstantsAndSharedPartials(t *testing.T) {
	e, _ := loadedEngine(t, 4, LoadOptions{Scale: Scale{SF: testSF}, Orientation: "column", CompressType: "quicklz"})
	for q, lines := range map[int][]string{
		1: {
			"-> HashAggregate (partial) [sum(l_quantity), sum(l_extendedprice), sum((l_extendedprice * (1 - l_discount))), " +
				"sum(((l_extendedprice * (1 - l_discount)) * (1 + l_tax))), count(l_quantity), count(l_extendedprice), " +
				"sum(l_discount), count(l_discount), count(*)]\n",
			"-> Table Scan (lineitem) cols=7/16 filter: (l_shipdate <= 1998-09-02)\n",
		},
		6:  {"filter: ((((l_shipdate >= 1994-01-01) AND (l_shipdate < 1995-01-01)) AND (l_discount BETWEEN 0.05 AND 0.07)) AND (l_quantity < 24))\n"},
		15: {"filter: ((l_shipdate >= 1996-01-01) AND (l_shipdate < 1996-04-01))\n"},
	} {
		text := planStmt(t, e, Queries[q]).Explain()
		for _, line := range lines {
			if !strings.Contains(text, line) {
				t.Errorf("Q%d: EXPLAIN lacks %q:\n%s", q, line, text)
			}
		}
	}
}
