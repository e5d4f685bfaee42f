package expr

import (
	"fmt"
	"slices"
	"testing"

	"hawq/internal/types"
)

var cmpOps = []BinOpKind{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// cmpDomains are small value domains, each in ascending order, over which
// MayMatch and Admits are checked exhaustively. The decimal domain mixes
// scales and integer kinds that compare by value, 0.5 and 0.50 included.
var cmpDomains = map[string][]types.Datum{
	"int":    {types.NewInt64(-1), types.NewInt32(0), types.NewInt64(1), types.NewInt64(2), types.NewInt32(3)},
	"date":   {types.NewDate(18000), types.NewDate(18001), types.NewDate(18002), types.NewDate(18003)},
	"string": {types.NewString(""), types.NewString("a"), types.NewString("ab"), types.NewString("b"), types.NewString("ba")},
	"decimal": {types.NewDecimal(-5, 1), types.NewInt64(0), types.NewDecimal(5, 1), types.NewDecimal(50, 2),
		types.NewDecimal(55, 2), types.NewDecimal(1, 0), types.NewDecimal(100, 2), types.NewInt64(2)},
}

// TestColCmpMayMatchExhaustive: over every closed range [lo, hi] of every
// domain and every comparison with a value of the domain or just outside
// it, MayMatch answers false only when no value of the range Admits, and
// true only when one does if the value is one of the domain's. Admits
// agrees with EvalBool of the comparison.
func TestColCmpMayMatchExhaustive(t *testing.T) {
	for name, dom := range cmpDomains {
		vals := append(slices.Clone(dom), outside(dom)...)
		for _, op := range cmpOps {
			for _, v := range vals {
				c := ColCmp{Col: 0, Op: op, Val: v}
				e := &BinOp{Op: op, L: &ColRef{Idx: 0}, R: &Const{D: v}}
				for _, x := range dom {
					want, err := EvalBool(e, types.Row{x})
					if err != nil {
						t.Fatal(err)
					}
					if got := c.Admits(x); got != want {
						t.Errorf("%s: %s %s %s: Admits = %v, EvalBool = %v", name, x, op, v, got, want)
					}
				}
				inDomain := slices.Contains(dom, v)
				for i := range dom {
					for j := i; j < len(dom); j++ {
						some := slices.ContainsFunc(dom[i:j+1], c.Admits)
						got := c.MayMatch(dom[i], dom[j])
						if !got && some {
							t.Errorf("%s: [%s, %s] %s %s: MayMatch false, but a value admits", name, dom[i], dom[j], op, v)
						}
						if got && !some && inDomain {
							t.Errorf("%s: [%s, %s] %s %s: MayMatch true, but no value admits", name, dom[i], dom[j], op, v)
						}
					}
				}
			}
		}
	}
}

// outside returns values just below and above a domain.
func outside(dom []types.Datum) []types.Datum {
	switch lo, hi := dom[0], dom[len(dom)-1]; lo.K {
	case types.KindString:
		return []types.Datum{types.NewString(hi.S + "z")}
	case types.KindDate:
		return []types.Datum{types.NewDate(int32(lo.I - 1)), types.NewDate(int32(hi.I + 1))}
	}
	return []types.Datum{types.NewDecimal(-15, 1), types.NewDecimal(201, 2)}
}

// TestColCmpUndecidedMayMatch: a comparison with NULL, or of kinds that
// do not compare, refuses no range and no value.
func TestColCmpUndecidedMayMatch(t *testing.T) {
	lo, hi := types.NewInt64(1), types.NewInt64(2)
	for _, op := range cmpOps {
		for _, c := range []ColCmp{{Op: op, Val: types.Null}, {Op: op, Val: types.NewString("x")}, {Op: op, Val: types.NewDate(1)}} {
			if !c.MayMatch(lo, hi) || !c.Admits(lo) {
				t.Errorf("%s %s refuses [1, 2]", op, c.Val)
			}
		}
		if c := (ColCmp{Op: op, Val: lo}); !c.MayMatch(types.Null, hi) || !c.Admits(types.Null) {
			t.Errorf("%s 1 refuses a NULL bound", op)
		}
	}
}

// TestColCmpTerms pins the shapes the recognizer takes: either operand
// order, BETWEEN as two bounds, a value that reads no column whether or
// not it is fixed yet, and nothing else.
func TestColCmpTerms(t *testing.T) {
	col := &ColRef{Idx: 2, K: types.KindInt64}
	one, two := NewConst(types.NewInt64(1)), NewConst(types.NewInt64(2))
	param := &Param{Idx: 0, K: types.KindInt64}
	cases := []struct {
		e    Expr
		want string
	}{
		{NewBinOp(OpLt, col, one), "[{2 < 1}]"},
		{NewBinOp(OpLt, one, col), "[{2 > 1}]"},
		{NewBinOp(OpEq, param, col), "[{2 = $1}]"},
		{NewBinOp(OpGe, col, NewBinOp(OpAdd, param, one)), "[{2 >= ($1 + 1)}]"},
		{&Between{E: col, Lo: one, Hi: two}, "[{2 >= 1} {2 <= 2}]"},
		{&Between{E: col, Lo: one, Hi: two, Negate: true}, "[]"},
		{&Between{E: col, Lo: one, Hi: col}, "[]"},
		{NewBinOp(OpLt, col, col), "[]"},
		{NewBinOp(OpLt, col, NewBinOp(OpAdd, col, one)), "[]"},
		{NewBinOp(OpAdd, col, one), "[]"},
		{NewBinOp(OpAnd, NewBinOp(OpLt, col, one), NewBinOp(OpGt, col, two)), "[]"},
		{&Not{E: NewBinOp(OpLt, col, one)}, "[]"},
	}
	for _, c := range cases {
		terms, ok := ColCmpTerms(c.e, nil)
		got := "["
		for i, t := range terms {
			if i > 0 {
				got += " "
			}
			got += fmt.Sprintf("{%d %s %s}", t.Col, t.Op, t.Val)
		}
		got += "]"
		if got != c.want || ok != (len(terms) > 0) {
			t.Errorf("ColCmpTerms(%s) = %s, %v; want %s", c.e, got, ok, c.want)
		}
	}
}
