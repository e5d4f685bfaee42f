package plan

import (
	"strings"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/types"
)

func scanNode() *Scan {
	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt64},
		types.Column{Name: "v", Kind: types.KindString},
	)
	f, _ := expr.NewFuncCall("length", []expr.Expr{&expr.ColRef{Idx: 1, K: types.KindString, Name: "v"}})
	return &Scan{
		Table: &catalog.TableDesc{
			OID: 99, Name: "t", Schema: schema,
			Dist:    catalog.DistPolicy{Cols: []int{0}},
			Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
		},
		Proj:   []int{0, 1},
		Filter: expr.NewBinOp(expr.OpGt, f, expr.NewConst(types.NewInt64(2))),
		SegFiles: []catalog.SegFile{
			{TableOID: 99, SegmentID: 0, SegNo: 1, Path: "/d/99/0/1", LogicalLen: 100},
			{TableOID: 99, SegmentID: 1, SegNo: 1, Path: "/d/99/1/1", LogicalLen: 50},
		},
		Schema: schema,
	}
}

// buildTwoSliceTree: Gather(HashAgg(Scan)).
func buildTwoSliceTree() Node {
	scan := scanNode()
	agg := &HashAgg{
		Input:  scan,
		Phase:  AggSingle,
		Groups: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt64}},
		Aggs:   []expr.AggSpec{{Kind: expr.AggCountStar}},
		Schema: types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt64},
			types.Column{Name: "count", Kind: types.KindInt64},
		),
	}
	return &Motion{ID: 1, Type: GatherMotion, Input: agg}
}

func TestBuildSlices(t *testing.T) {
	p := Build(buildTwoSliceTree(), []int{QDSegment}, []int{0, 1}, 2)
	if len(p.Slices) != 2 {
		t.Fatalf("slices = %d", len(p.Slices))
	}
	top := p.Slices[0]
	if !top.OnQD() {
		t.Error("top slice must run on QD")
	}
	recv, ok := top.Root.(*MotionRecv)
	if !ok {
		t.Fatalf("top root = %T", top.Root)
	}
	if recv.ID != 1 {
		t.Errorf("recv = %+v", recv)
	}
	// The motion's senders are its slice's gang; its receivers are the
	// gang of the slice it names as parent.
	child := p.Slices[recv.ID]
	m, ok := child.Root.(*Motion)
	if !ok || m.ID != recv.ID {
		t.Fatalf("child root = %T %+v", child.Root, child.Root)
	}
	if child.Parent != 0 {
		t.Errorf("child parent = %d", child.Parent)
	}
	if len(child.Segments) != 2 {
		t.Errorf("child segments = %v", child.Segments)
	}
}

func TestBuildSenderHint(t *testing.T) {
	scan := scanNode()
	tree := &Motion{ID: 1, Type: GatherMotion, Input: &SenderHint{Input: scan, Segments: []int{1}}}
	p := Build(tree, []int{QDSegment}, []int{0, 1, 2}, 3)
	if got := p.Slices[1].Segments; len(got) != 1 || got[0] != 1 {
		t.Errorf("direct dispatch segments = %v", got)
	}
	// The hint itself must be unwrapped.
	if _, ok := p.Slices[1].Root.(*Motion).Input.(*SenderHint); ok {
		t.Error("SenderHint not unwrapped")
	}
}

func TestThreeSlicePlan(t *testing.T) {
	// Gather(Agg(Join(Scan, Redistribute(Scan)))) -- the Figure 3(b) shape.
	left := scanNode()
	right := scanNode()
	redist := &Motion{ID: 2, Type: RedistributeMotion, Input: right, HashCols: []int{0}}
	join := &HashJoin{
		Kind: InnerJoin, Left: left, Right: redist,
		LeftKeys: []int{0}, RightKeys: []int{0},
		Schema: left.Schema.Concat(right.Schema),
	}
	top := &Motion{ID: 1, Type: GatherMotion, Input: join}
	p := Build(top, []int{QDSegment}, []int{0, 1}, 2)
	if len(p.Slices) != 3 {
		t.Fatalf("slices = %d", len(p.Slices))
	}
	// The join slice must read the redistribute through a MotionRecv.
	joinSlice := p.Slices[1]
	hj := joinSlice.Root.(*Motion).Input.(*HashJoin)
	if _, ok := hj.Right.(*MotionRecv); !ok {
		t.Errorf("join right = %T, want MotionRecv", hj.Right)
	}
	// Redistribute's receivers are the join slice's segments: its slice
	// names the join slice as parent, and the join reads it by its ID.
	redistSlice := p.Slices[2]
	if r, ok := hj.Right.(*MotionRecv); !ok || redistSlice.Parent != joinSlice.ID || int(r.ID) != redistSlice.ID {
		t.Errorf("redistribute slice %d has parent %d, join slice is %d", redistSlice.ID, redistSlice.Parent, joinSlice.ID)
	}
	out := p.Explain()
	for _, want := range []string{"Slice 0", "Slice 2", "Gather Motion", "Redistribute Motion", "Hash Join", "Table Scan (t)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Build(buildTwoSliceTree(), []int{QDSegment}, []int{0, 1}, 2)
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Slices) != 2 || got.NumSegments != 2 {
		t.Fatalf("decoded plan = %+v", got)
	}
	scan := got.Slices[1].Root.(*Motion).Input.(*HashAgg).Input.(*Scan)
	if scan.Table.Name != "t" || len(scan.SegFiles) != 2 || scan.SegFiles[0].LogicalLen != 100 {
		t.Errorf("self-described metadata lost: %+v", scan)
	}
	// The rebound function must evaluate.
	v, err := scan.Filter.Eval(types.Row{types.NewInt64(1), types.NewString("abc")})
	if err != nil {
		t.Fatalf("filter eval after decode: %v", err)
	}
	if !v.Bool() {
		t.Error("length('abc') > 2 evaluated false")
	}
}

func TestEncodedPlanIsCompressed(t *testing.T) {
	// A plan with many segment files (the metadata that makes plans
	// large) must compress well.
	scan := scanNode()
	for i := 0; i < 2000; i++ {
		scan.SegFiles = append(scan.SegFiles, catalog.SegFile{
			TableOID: 99, SegmentID: i % 16, SegNo: 1,
			Path: "/hawq/data/99/segment/file", LogicalLen: int64(i),
		})
	}
	p := Build(&Motion{ID: 1, Type: GatherMotion, Input: scan}, []int{QDSegment}, []int{0}, 1)
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	// Compare with the uncompressed gob size via Decode (which must
	// still succeed) and a sanity bound.
	if len(data) > 120*1024 {
		t.Errorf("encoded plan %d bytes; compression ineffective", len(data))
	}
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
}

func TestPlanWalkVisitsAllNodes(t *testing.T) {
	p := Build(buildTwoSliceTree(), []int{QDSegment}, []int{0, 1}, 2)
	var labels []string
	p.Walk(func(n Node) { labels = append(labels, n.Label()) })
	joined := strings.Join(labels, "|")
	for _, want := range []string{"Motion Recv", "Gather Motion", "HashAggregate", "Table Scan"} {
		if !strings.Contains(joined, want) {
			t.Errorf("walk missed %q in %v", want, labels)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a plan")); err == nil {
		t.Error("garbage decoded")
	}
}
