package planner

import (
	"fmt"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/types"
)

// TestPartitionPrunedMatchesReference: partition elimination over the
// conjuncts' comparisons (expr.ColCmpTerms) decides as the recognizer it
// replaced did, for range and list children of every partition-key kind,
// every comparison operator, both operand orders, literals and
// placeholders, on the partition column and off it.
func TestPartitionPrunedMatchesReference(t *testing.T) {
	ints := func(vs ...int64) []types.Datum {
		out := make([]types.Datum, len(vs))
		for i, v := range vs {
			out[i] = types.NewInt64(v)
		}
		return out
	}
	date := types.MustParseDate
	dec := types.NewDecimal
	str := types.NewString
	rng := func(lo, hi types.Datum) *catalog.TableDesc {
		return &catalog.TableDesc{PartKind: catalog.PartRange, PartCol: 1, RangeLo: lo, RangeHi: hi}
	}
	list := func(vals ...types.Datum) *catalog.TableDesc {
		return &catalog.TableDesc{PartKind: catalog.PartList, PartCol: 1, ListValues: vals}
	}
	kids := []*catalog.TableDesc{
		rng(types.NewInt64(10), types.NewInt64(20)),
		rng(types.NewInt64(10), types.NewInt64(11)),
		rng(types.NewInt32(-5), types.NewInt32(0)),
		rng(types.Null, types.Null),
		rng(date("2020-01-01"), date("2020-02-01")),
		rng(date("2020-01-31"), date("2020-02-01")),
		rng(dec(100, 2), dec(250, 2)),
		rng(str("b"), str("m")),
		list(ints(1, 3)...),
		list(date("2020-01-01"), date("2020-03-01")),
		list(dec(15, 1), dec(250, 2)),
		list(str("a"), str("c")),
		list(),
	}
	values := append(ints(-6, -5, -1, 0, 1, 2, 3, 9, 10, 11, 19, 20, 21),
		types.NewInt32(10),
		date("2019-12-31"), date("2020-01-01"), date("2020-01-02"), date("2020-01-31"), date("2020-02-01"), date("2020-03-01"),
		dec(99, 2), dec(1, 0), dec(100, 2), dec(15, 1), dec(249, 2), dec(25, 1), dec(250, 2), dec(251, 2), dec(105, 1),
		str("a"), str("b"), str("c"), str("l"), str("m"), str("n"), types.Null)
	ops := []expr.BinOpKind{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	proj := []int{0, 1} // output 1 is the partition column, output 0 is not
	decided := 0
	for _, kid := range kids {
		kind := kid.RangeLo.K
		if kid.PartKind == catalog.PartList && len(kid.ListValues) > 0 {
			kind = kid.ListValues[0].K
		}
		for _, v := range values {
			if !v.IsNull() && kind != types.KindNull && !types.Comparable(kind, v.K) {
				continue // the binder refuses the comparison
			}
			for _, op := range ops {
				for col := range proj {
					c := &expr.ColRef{Idx: col, K: kind}
					for _, cond := range []expr.Expr{
						expr.NewBinOp(op, c, expr.NewConst(v)),
						expr.NewBinOp(op, expr.NewConst(v), c),
						expr.NewBinOp(op, c, &expr.Param{Idx: 0, K: v.K}),
					} {
						conds := []expr.Expr{cond}
						terms, _ := expr.ColCmpTerms(cond, nil)
						got, want := partitionPruned(kid, terms, proj), refPartitionPruned(kid, conds, proj)
						if got != want {
							t.Errorf("child %s, %s: pruned = %v, reference %v", childString(kid), cond, got, want)
						}
						if want {
							decided++
						}
					}
				}
			}
		}
	}
	if decided == 0 {
		t.Fatal("the grid prunes no child: it checks nothing")
	}
}

func childString(kid *catalog.TableDesc) string {
	if kid.PartKind == catalog.PartRange {
		return fmt.Sprintf("[%s, %s)", kid.RangeLo, kid.RangeHi)
	}
	return fmt.Sprintf("in %v", kid.ListValues)
}

// refPartitionPruned is partition elimination as it was before the
// comparison recognizer moved into expr, kept verbatim as the reference.
func refPartitionPruned(kid *catalog.TableDesc, conds []expr.Expr, proj []int) bool {
	for _, c := range conds {
		col, op, val, ok := refColValue(c)
		v, isConst := val.(*expr.Const)
		if !ok || !isConst || proj[col] != kid.PartCol {
			continue
		}
		if kid.PartKind == catalog.PartRange && !kid.RangeLo.IsNull() {
			// Child covers [lo, hi).
			switch op {
			case expr.OpEq:
				if types.Compare(v.D, kid.RangeLo) < 0 || types.Compare(v.D, kid.RangeHi) >= 0 {
					return true
				}
			case expr.OpLt:
				if types.Compare(kid.RangeLo, v.D) >= 0 {
					return true
				}
			case expr.OpLe:
				if types.Compare(kid.RangeLo, v.D) > 0 {
					return true
				}
			case expr.OpGt:
				if types.Compare(v.D, kid.RangeHi) >= 0 || types.Equal(v.D, sub1(kid.RangeHi)) {
					return true
				}
			case expr.OpGe:
				if types.Compare(v.D, kid.RangeHi) >= 0 {
					return true
				}
			}
		}
		if kid.PartKind == catalog.PartList && len(kid.ListValues) > 0 && op == expr.OpEq {
			match := false
			for _, lv := range kid.ListValues {
				if types.Equal(lv, v.D) {
					match = true
					break
				}
			}
			if !match {
				return true
			}
		}
	}
	return false
}

var refFlipped = map[expr.BinOpKind]expr.BinOpKind{expr.OpLt: expr.OpGt, expr.OpLe: expr.OpGe, expr.OpGt: expr.OpLt, expr.OpGe: expr.OpLe}

func refColValue(e expr.Expr) (col int, op expr.BinOpKind, val expr.Expr, ok bool) {
	b, isBin := e.(*expr.BinOp)
	if !isBin || !b.Op.IsComparison() {
		return -1, 0, nil, false
	}
	c, op, val := b.L, b.Op, b.R
	if _, isCol := c.(*expr.ColRef); !isCol {
		c, val = b.R, b.L
		if f, flip := refFlipped[op]; flip {
			op = f
		}
	}
	cr, isCol := c.(*expr.ColRef)
	switch val.(type) {
	case *expr.Const, *expr.Param:
		if isCol {
			return cr.Idx, op, val, true
		}
	}
	return -1, 0, nil, false
}
