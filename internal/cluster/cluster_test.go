package cluster

import (
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/hdfs"
	"hawq/internal/plan"
	"hawq/internal/tx"
	"hawq/internal/types"
)

func testCluster(t *testing.T, segments int) *Cluster {
	t.Helper()
	c, err := New(Config{Segments: segments, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBootRegistersSegments(t *testing.T) {
	c := testCluster(t, 3)
	tr := c.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Commit()
	segs := c.Cat().Segments(tr.Snapshot())
	if len(segs) != 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	for i, s := range segs {
		if s.ID != i || s.Status != "up" {
			t.Errorf("segment %d = %+v", i, s)
		}
	}
	if c.NumSegments() != 3 {
		t.Errorf("NumSegments = %d", c.NumSegments())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero segments accepted")
	}
}

// TestUnknownInterconnectRejected: a name the cluster does not know is an
// error, never a silent fallback to UDP — "TCP" is not "tcp".
func TestUnknownInterconnectRejected(t *testing.T) {
	for _, ic := range []string{"TCP", "rdma"} {
		c, err := New(Config{Segments: 1, SpillDir: t.TempDir(), Interconnect: ic})
		if err == nil {
			c.Close()
			t.Errorf("interconnect %q accepted", ic)
		}
	}
}

// dispatchValues runs a trivial gather plan through the dispatcher.
func TestDispatchGatherPlan(t *testing.T) {
	c := testCluster(t, 2)
	schema := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt64})
	// Each segment produces its segment-invariant literal row; the QD
	// gathers both.
	vals := &plan.Values{Rows: []types.Row{{types.NewInt64(7)}}, Schema: schema}
	tree := &plan.Motion{Type: plan.GatherMotion, Input: vals}
	p := plan.Build(tree, []int{plan.QDSegment}, []int{0, 1}, 2)
	res, err := c.Dispatch(nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDispatchFailsCleanlyWhenQEErrors(t *testing.T) {
	c := testCluster(t, 2)
	schema := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt64})
	// A filter that divides by zero on the segments... simpler: scan a
	// table whose segfiles point at a missing path with nonzero length.
	scan := &plan.Scan{
		Table: &catalog.TableDesc{
			OID: 1, Name: "broken", Schema: schema,
			Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
		},
		Proj:     []int{0},
		SegFiles: []catalog.SegFile{{TableOID: 1, SegmentID: 0, SegNo: 1, Path: "/missing", LogicalLen: 100}},
		Schema:   schema,
	}
	tree := &plan.Motion{Type: plan.GatherMotion, Input: scan}
	p := plan.Build(tree, []int{plan.QDSegment}, []int{0, 1}, 2)
	if _, err := c.Dispatch(nil, p, nil); err == nil {
		t.Fatal("dispatch of broken scan succeeded")
	}
	// The cluster stays usable: a fresh dispatch works (cancellation did
	// not wedge the interconnect).
	vals := &plan.Values{Rows: []types.Row{{types.NewInt64(1)}}, Schema: schema}
	p2 := plan.Build(&plan.Motion{Type: plan.GatherMotion, Input: vals}, []int{plan.QDSegment}, []int{0, 1}, 2)
	res, err := c.Dispatch(nil, p2, nil)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("post-error dispatch: %v, %v", res.Rows, err)
	}
}

func TestFaultDetectorAndRecovery(t *testing.T) {
	c := testCluster(t, 3)
	if marked := c.FaultCheck(); len(marked) != 0 {
		t.Fatalf("healthy cluster marked %v", marked)
	}
	c.Segment(1).Kill()
	if c.Segment(1).Alive() {
		t.Fatal("killed segment alive")
	}
	marked := c.FaultCheck()
	if len(marked) != 1 || marked[0] != 1 {
		t.Fatalf("marked = %v", marked)
	}
	tr := c.TxMgr.Begin(tx.ReadCommitted)
	segs := c.Cat().Segments(tr.Snapshot())
	tr.Commit()
	if segs[1].Status != "down" {
		t.Fatalf("catalog status = %s", segs[1].Status)
	}
	// Second check is a no-op.
	if marked := c.FaultCheck(); len(marked) != 0 {
		t.Fatalf("re-marked %v", marked)
	}
	if err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	if c.Segment(1).Down() || !c.Segment(1).Alive() {
		t.Fatal("recovery did not restore the segment")
	}
}

func TestLaneManagerConcurrency(t *testing.T) {
	lm := newLaneManager()
	a, _ := lm.acquire(10, 1, nil)
	b, _ := lm.acquire(10, 2, nil)
	if a == b {
		t.Fatalf("two transactions share lane %d", a)
	}
	// A transaction that holds a lane gets it back.
	if again, held := lm.acquire(10, 2, nil); again != b || !held {
		t.Errorf("transaction 2 re-acquired lane %d (held %v), want its lane %d", again, held, b)
	}
	lm.release(10, a)
	c, held := lm.acquire(10, 3, nil)
	if c != a || held {
		t.Errorf("freed lane %d not reused (got %d, held %v)", a, c, held)
	}
	// Lanes on different tables are independent.
	if other, _ := lm.acquire(11, 1, nil); other != 1 {
		t.Errorf("fresh table lane = %d", other)
	}
}

func TestAcquireLaneTruncatesGarbage(t *testing.T) {
	c := testCluster(t, 1)
	tr := c.TxMgr.Begin(tx.ReadCommitted)
	desc := &catalog.TableDesc{
		Name:    "t",
		Schema:  types.NewSchema(types.Column{Name: "k", Kind: types.KindInt64}),
		Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
	}
	if _, err := c.Cat().CreateTable(tr, desc); err != nil {
		t.Fatal(err)
	}
	segno, files, err := c.AcquireLane(tr, desc)
	if err != nil {
		t.Fatal(err)
	}
	if segno != 1 || len(files) != 1 {
		t.Fatalf("lane = %d files = %v", segno, files)
	}
	tr.Commit()

	// Simulate an aborted writer leaving garbage: physically append
	// beyond the committed logical length (0).
	sf := files[0]
	w, err := c.FS.CreateOrAppend(sf.Path, hdfs.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("garbage from an aborted transaction"))
	w.Close()
	st, _ := c.FS.Stat(sf.Path)
	if st.Length == 0 {
		t.Fatal("setup failed")
	}
	// The next lane acquisition must truncate it back (§5).
	tr2 := c.TxMgr.Begin(tx.ReadCommitted)
	defer tr2.Abort()
	_, files2, err := c.AcquireLane(tr2, desc)
	if err != nil {
		t.Fatal(err)
	}
	st, _ = c.FS.Stat(files2[0].Path)
	if st.Length != 0 {
		t.Fatalf("garbage not truncated: physical length %d", st.Length)
	}
}
