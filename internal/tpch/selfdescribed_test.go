package tpch

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hawq/internal/plan"
	"hawq/internal/planner"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// rowsMultiset canonicalizes a result for comparison across two
// executions: order-insensitive (not every query ends in ORDER BY) and
// with floats rounded to nine digits (partial aggregates merge in
// motion-arrival order).
func rowsMultiset(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, d := range r {
			if d.K == types.KindFloat64 {
				fmt.Fprintf(&b, "%.9g|", d.Float())
			} else {
				b.WriteString(d.String() + "|")
			}
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestSelfDescribedPlanExecutes keeps §3.1's self-described plan
// proven now that dispatch no longer serializes it: for every TPC-H
// query, the plan that went through the wire form — gob + quicklz, with
// function implementations rebound from names — returns the same rows
// as the QD's in-memory plan, so a QE needs nothing beyond the plan.
// Two more statements carry zero-column scans (a COUNT(*), and a join
// side nothing references): gob drops an empty Proj to nil, which must
// still mean "no columns", not "every column under a zero-width schema".
// A generic plan bound through BindParams carries its arguments in its
// header, and a current_date plan is bound where it runs: both travel
// the wire form too.
func TestSelfDescribedPlanExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	e, _ := loadedEngine(t, 2, LoadOptions{Scale: Scale{SF: testSF}, Orientation: "row", CompressType: "quicklz"})
	cl := e.Cluster()
	sub := e.NewSession()
	rows := 0
	type stmtCase struct {
		name, sql string
		args      []types.Datum // planned generically and bound when set
	}
	cases := []stmtCase{
		{"count(*)", "SELECT count(*) FROM lineitem", nil},
		{"zero-column join side", "SELECT n_name FROM nation, region WHERE n_nationkey < 3", nil},
		{"generic $n", "SELECT l_returnflag, sum(l_quantity * $1) FROM lineitem WHERE l_orderkey <= $2 GROUP BY l_returnflag",
			[]types.Datum{types.NewInt64(2), types.NewInt64(400)}},
		{"current_date", "SELECT count(*) FROM orders WHERE o_orderdate < current_date()", nil},
		{"LIKE $1", "SELECT p_partkey, p_name FROM part WHERE p_name LIKE $1 AND p_type NOT LIKE $2",
			[]types.Datum{types.NewString("%gr_en%"), types.NewString(`%BRASS\%`)}},
	}
	for _, n := range AllQueryNumbers() {
		cases = append(cases, stmtCase{fmt.Sprintf("Q%d", n), Queries[n], nil})
	}
	for _, c := range cases {
		q := c.name
		stmt, err := sqlparser.ParseOne(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		tr := cl.TxMgr.Begin(tx.ReadCommitted)
		p := &planner.Planner{Cat: cl.Cat(), Snap: tr.Snapshot(), NumSegments: cl.NumSegments()}
		p.SubqueryEval = func(s *sqlparser.SelectStmt) (types.Datum, error) {
			res, err := sub.Query(s.String())
			if err != nil || len(res.Rows) == 0 {
				return types.Null, err
			}
			return res.Rows[0][0], nil
		}
		p.GenericParams = c.args != nil
		pl, err := p.PlanSelect(stmt.(*sqlparser.SelectStmt))
		tr.Abort()
		if err != nil {
			t.Fatalf("%s: plan: %v", q, err)
		}
		if c.args != nil {
			if err := pl.BindParams(c.args); err != nil {
				t.Fatalf("%s: bind: %v", q, err)
			}
		}
		enc, err := plan.Encode(pl)
		if err != nil {
			t.Fatalf("%s: encode: %v", q, err)
		}
		wire, err := plan.Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", q, err)
		}
		want, err := cl.Dispatch(context.Background(), pl, nil)
		if err != nil {
			t.Fatalf("%s: dispatch: %v", q, err)
		}
		got, err := cl.Dispatch(context.Background(), wire, nil)
		if err != nil {
			t.Fatalf("%s: dispatch of decoded plan: %v", q, err)
		}
		if g, w := rowsMultiset(got.Rows), rowsMultiset(want.Rows); g != w {
			t.Errorf("%s: decoded plan returned different rows\n got: %s\nwant: %s", q, g, w)
		}
		rows += len(want.Rows)
	}
	if rows == 0 {
		t.Error("no query returned a row: the comparison proved nothing")
	}
}
