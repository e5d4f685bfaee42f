package executor

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/types"
)

// refRows is the test-only reference the operators are compared
// against: it evaluates a plan tree with plain loops over []types.Row —
// expr.Eval, types.Compare, a nested loop for every join — and shares
// nothing with the operators. tables maps a scanned table's name to its
// rows (whole-table rows, before Proj).
func refRows(t testing.TB, n plan.Node, tables map[string][]types.Row) []types.Row {
	t.Helper()
	evalBool := func(e expr.Expr, row types.Row) bool {
		if e == nil {
			return true
		}
		ok, err := expr.EvalBool(e, row)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	eval := func(e expr.Expr, row types.Row) types.Datum {
		d, err := e.Eval(row)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	filter := func(rows []types.Row, pred expr.Expr) []types.Row {
		var out []types.Row
		for _, r := range rows {
			if evalBool(pred, r) {
				out = append(out, r)
			}
		}
		return out
	}
	concat := func(l, r types.Row) types.Row {
		return append(append(types.Row{}, l...), r...)
	}
	// join pairs every left row with every right row that passes on.
	join := func(kind plan.JoinKind, left, right []types.Row, rightWidth int, on func(l, r types.Row) bool) []types.Row {
		var out []types.Row
		for _, l := range left {
			matched := false
			for _, r := range right {
				if !on(l, r) {
					continue
				}
				matched = true
				if kind == plan.InnerJoin || kind == plan.LeftJoin {
					out = append(out, concat(l, r))
				}
			}
			switch {
			case kind == plan.LeftJoin && !matched:
				out = append(out, concat(l, make(types.Row, rightWidth)))
			case kind == plan.SemiJoin && matched, kind == plan.AntiJoin && !matched:
				out = append(out, l)
			}
		}
		return out
	}

	switch v := n.(type) {
	case *plan.Values:
		return v.Rows
	case *plan.Scan:
		var out []types.Row
		for _, r := range tables[v.Table.Name] {
			row := make(types.Row, len(v.Proj))
			for i, c := range v.Proj {
				row[i] = r[c]
			}
			out = append(out, row)
		}
		return filter(out, v.Filter)
	case *plan.Select:
		return filter(refRows(t, v.Input, tables), v.Pred)
	case *plan.Project:
		var out []types.Row
		for _, r := range refRows(t, v.Input, tables) {
			row := make(types.Row, len(v.Exprs))
			for i, e := range v.Exprs {
				row[i] = eval(e, r)
			}
			out = append(out, row)
		}
		return out
	case *plan.Limit:
		in := refRows(t, v.Input, tables)
		lo := min(v.Offset, int64(len(in)))
		return in[lo:min(lo+v.N, int64(len(in)))]
	case *plan.Sort:
		out := append([]types.Row(nil), refRows(t, v.Input, tables)...)
		sort.SliceStable(out, func(i, j int) bool {
			for _, k := range v.Keys {
				c := types.Compare(out[i][k.Col], out[j][k.Col])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		return out
	case *plan.HashAgg:
		type group struct {
			keys types.Row
			accs []expr.Accumulator
		}
		groups := map[string]*group{}
		var order []string
		get := func(keys types.Row) *group {
			k := fmt.Sprint(keys)
			g := groups[k]
			if g == nil {
				g = &group{keys: keys}
				for _, spec := range v.Aggs {
					g.accs = append(g.accs, expr.NewAccumulator(spec))
				}
				groups[k] = g
				order = append(order, k)
			}
			return g
		}
		if len(v.Groups) == 0 {
			get(nil) // a scalar aggregate has its one group even over no input
		}
		for _, r := range refRows(t, v.Input, tables) {
			keys := make(types.Row, len(v.Groups))
			for i, e := range v.Groups {
				keys[i] = eval(e, r)
			}
			g := get(keys)
			for i, spec := range v.Aggs {
				if spec.Kind == expr.AggCountStar {
					g.accs[i].Add(types.NewInt64(1))
				} else {
					g.accs[i].Add(eval(spec.Arg, r))
				}
			}
		}
		var out []types.Row
		for _, k := range order {
			g := groups[k]
			row := append(types.Row{}, g.keys...)
			for _, acc := range g.accs {
				row = append(row, acc.Result())
			}
			out = append(out, row)
		}
		return out
	case *plan.HashJoin:
		return join(v.Kind, refRows(t, v.Left, tables), refRows(t, v.Right, tables), v.Right.OutSchema().Len(),
			func(l, r types.Row) bool {
				for i := range v.LeftKeys {
					a, b := l[v.LeftKeys[i]], r[v.RightKeys[i]]
					if a.IsNull() || b.IsNull() || types.Compare(a, b) != 0 {
						return false
					}
				}
				return evalBool(v.ExtraPred, concat(l, r))
			})
	case *plan.NestLoopJoin:
		return join(v.Kind, refRows(t, v.Left, tables), refRows(t, v.Right, tables), v.Right.OutSchema().Len(),
			func(l, r types.Row) bool { return evalBool(v.Pred, concat(l, r)) })
	default:
		t.Fatalf("reference: no evaluation for %T", n)
		return nil
	}
}

// sameRows compares an operator tree's output with the reference's:
// row for row when ordered (the tree's output order is defined — a Sort,
// or a pipeline over an ordered input), as multisets otherwise.
func sameRows(t testing.TB, got, want []types.Row, ordered bool) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if reflect.DeepEqual(g, w) {
		return
	}
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("row %d: got %s, reference has %s (%d vs %d rows)", i, g[i], w[i], len(g), len(w))
		}
	}
	t.Fatalf("got %d rows, reference has %d", len(g), len(w))
}

func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}
