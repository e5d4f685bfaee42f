package plan

import (
	"testing"

	"hawq/internal/expr"
	"hawq/internal/types"
)

// TestCloneIsolation: a Clone is a header copy. BindParams on it pins the
// copy's deferred slice and records the arguments in the copy alone; the
// original keeps its full gang, no arguments and the very same nodes, and
// a second copy binds independently.
func TestCloneIsolation(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt64})
	filter := expr.NewBinOp(expr.OpEq,
		&expr.ColRef{Idx: 0, K: types.KindInt64, Name: "k"},
		&expr.Param{Idx: 0, K: types.KindInt64})
	motion := &Motion{Type: GatherMotion, Input: &SenderHint{
		Input:        &Scan{Proj: []int{0}, Filter: filter, Schema: schema},
		Segments:     []int{0, 1, 2, 3},
		DeferredKeys: []DirectKey{{Param: 0}},
	}}
	p := Build(motion, []int{QDSegment}, []int{0, 1, 2, 3}, 4)
	p.ParamKinds = []types.Kind{types.KindInt64}
	segs := p.Slices[1].Segments
	var nodes []Node
	p.Walk(func(n Node) { nodes = append(nodes, n) })

	c, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BindParams([]types.Datum{types.NewInt64(42)}); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Slices[1].Segments); got != 1 {
		t.Fatalf("copy not direct-dispatched: %v", c.Slices[1].Segments)
	}
	if len(c.Args) != 1 || c.Args[0] != types.NewInt64(42) {
		t.Fatalf("copy's arguments = %v", c.Args)
	}
	// The original is untouched: full gang, the same list, no arguments.
	if got := p.Slices[1].Segments; len(got) != 4 || &got[0] != &segs[0] {
		t.Fatalf("original segments changed: %v", got)
	}
	if p.Args != nil {
		t.Fatalf("original took the copy's arguments: %v", p.Args)
	}
	// Both walk the very same nodes, and the filter still holds $1.
	i := 0
	c.Walk(func(n Node) {
		if i >= len(nodes) || n != nodes[i] {
			t.Fatalf("node %d of the copy is not the original's", i)
		}
		i++
	})
	if i != len(nodes) || filter.R.String() != "$1" {
		t.Fatalf("copy walked %d of %d nodes; filter %s", i, len(nodes), filter)
	}
	// And a second copy of the original binds independently.
	c2, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.BindParams([]types.Datum{types.NewInt64(7)}); err != nil {
		t.Fatal(err)
	}
	if c2.Args[0] != types.NewInt64(7) || c.Args[0] != types.NewInt64(42) {
		t.Fatalf("copies share arguments: %v %v", c.Args, c2.Args)
	}
	if c2.Slices[1].Segments[0] == 0 && c.Slices[1].Segments[0] == 0 {
		t.Log("both keys hash to segment 0 (legal, just unlucky)")
	}
}
