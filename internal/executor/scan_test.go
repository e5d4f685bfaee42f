package executor

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/plan"
	"hawq/internal/pxf"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// cancelAtCheck is a query context that is canceled, with a cause, at
// its n'th cancellation check: Context.canceled asks for Done once per
// pull, so on a slice that runs on one goroutine this cancels between
// two pulls of a running scan, at the same one every time.
type cancelAtCheck struct {
	context.Context
	cancel context.CancelCauseFunc
	cause  error
	left   int
}

func newCancelAtCheck(n int, cause error) *cancelAtCheck {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &cancelAtCheck{Context: ctx, cancel: cancel, cause: cause, left: n}
}

func (c *cancelAtCheck) Done() <-chan struct{} {
	if c.left--; c.left == 0 {
		c.cancel(c.cause)
	}
	return c.Context.Done()
}

// scanConsumers is every kind of operator a table scan feeds, each as
// the tree it builds over the scan.
var scanConsumers = []struct {
	name string
	tree func(scan *plan.Scan) plan.Node
}{
	{"vec-agg", func(scan *plan.Scan) plan.Node { return sumByV(scan) }},
	{"row-agg-over-join", func(scan *plan.Scan) plan.Node { return sumByV(joinWith13(scan, true)) }},
	{"join-build", func(scan *plan.Scan) plan.Node { return joinWith13(scan, false) }},
	{"join-probe", func(scan *plan.Scan) plan.Node { return joinWith13(scan, true) }},
	{"sort", func(scan *plan.Scan) plan.Node {
		return &plan.Sort{Input: scan, Keys: []plan.OrderKey{{Col: 1}}}
	}},
	{"motion-send", func(scan *plan.Scan) plan.Node {
		return &plan.Motion{ID: 1, Type: plan.RedistributeMotion, HashCols: []int{0}, Input: scan}
	}},
	// A LIMIT that closes its input early, but not before the block that
	// fails or the pull that is canceled.
	{"limit", func(scan *plan.Scan) plan.Node { return &plan.Limit{Input: scan, N: scanErrRows - 10} }},
}

// runTree runs root as its slice would be run: a motion sends into a
// sinkNode, to four receivers, anything else is drained.
func runTree(ctx *Context, root plan.Node) error {
	if _, ok := root.(*plan.Motion); ok {
		ctx.Net, ctx.Plan = &sinkNode{}, motionPlan(root, []int{0}, []int{0, 1, 2, 3})
		return RunSlice(ctx, 1)
	}
	op, err := Build(ctx, root)
	if err != nil {
		return err
	}
	return Drain(ctx, op, nil)
}

const scanErrRows = 40000

func sumByV(in plan.Node) plan.Node {
	return &plan.HashAgg{
		Input: in, Phase: plan.AggSingle,
		Groups: []expr.Expr{&expr.ColRef{Idx: 1, K: types.KindInt64}},
		Aggs:   []expr.AggSpec{{Kind: expr.AggSum, Arg: &expr.ColRef{Idx: 0, K: types.KindInt64}}},
		Schema: intsSchema("v", "sum"),
	}
}

// joinWith13 joins the scan's v with the values 0..12, the scan on the
// probe side or on the build side.
func joinWith13(scan plan.Node, probe bool) plan.Node {
	var small [][]int64
	for i := 0; i < 13; i++ {
		small = append(small, []int64{int64(i)})
	}
	vals := valuesNode(intsSchema("rk"), small...)
	if probe {
		return &plan.HashJoin{Kind: plan.InnerJoin, Left: scan, Right: vals, LeftKeys: []int{1}, RightKeys: []int{0}, Schema: intsSchema("k", "v", "rk")}
	}
	return &plan.HashJoin{Kind: plan.InnerJoin, Left: vals, Right: scan, LeftKeys: []int{0}, RightKeys: []int{1}, Schema: intsSchema("rk", "k", "v")}
}

// scanBatches returns the batches the slice's table scan delivered.
func scanBatches(t *testing.T, r *StatsRecorder) int64 {
	t.Helper()
	for _, op := range r.Stats().Ops {
		if strings.HasPrefix(op.Label, "Table Scan") {
			return op.Batches
		}
	}
	t.Fatal("no table scan among the recorded operators")
	return 0
}

// TestVecScanErrorReachesAgg: whatever consumes a table scan — the
// vector aggregate that gave the test its name, and every other kind of
// consumer — a scan that fails, or is canceled, part-way must hand it the
// error or the cause, never a clean end of stream for it to report a
// partial result from, and every pooled batch must be back.
func TestVecScanErrorReachesAgg(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, scanErrRows)
	for i := range rows {
		rows[i] = types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i % 13))}
	}
	desc, good := writeCOTable(t, fs, 7, "good", intsSchema("k", "v"), rows)
	nblocks := int64(0)
	err = storage.ScanVecBatches(fs, desc.Storage, desc.Schema, good[0], []int{0}, nil, nil, func(vb *types.VecBatch) error {
		nblocks++
		types.PutVecBatch(vb)
		return nil
	})
	if err != nil || nblocks < 4 {
		t.Fatalf("%d blocks, err %v: the cases below need a scan of several", nblocks, err)
	}
	// Lengths past the physical end: the scan fails before its first
	// block.
	long := []int64{good[0].ColLens[0] + 64, good[0].ColLens[1] + 64}
	// A flipped byte in the middle of column k's file: the blocks before
	// it are with the consumer when a checksum fails.
	descBad, bad := writeCOTable(t, fs, 8, "bad", intsSchema("k", "v"), rows)
	path := storage.LaneFiles(descBad.Storage, descBad.Schema.Len(), bad[0])[0].Path
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := fs.WriteFile(path, data, hdfs.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("canceled by test")
	scanOf := func(tc string) *plan.Scan {
		scan := &plan.Scan{Table: desc, Proj: []int{0, 1}, SegFiles: good, Schema: desc.Schema}
		switch tc {
		case "fails-at-open":
			sf := good[0]
			sf.ColLens = long
			scan.SegFiles = []catalog.SegFile{sf}
		case "fails-after-a-block":
			scan.Table, scan.SegFiles = descBad, bad
		}
		return scan
	}
	for _, tc := range []string{"fails-at-open", "fails-after-a-block", "canceled-mid-scan"} {
		t.Run(tc, func(t *testing.T) {
			for _, c := range scanConsumers {
				// Bare, and with every operator in its stats decorator,
				// which also says how far the scan got.
				for _, stats := range []bool{false, true} {
					name := c.name
					if stats {
						name += "-with-stats"
					}
					t.Run(name, func(t *testing.T) {
						batches, vecs := types.PoolInUse(), types.VecPoolInUse()
						ctx, root := &Context{Segment: 0, FS: fs}, c.tree(scanOf(tc))
						if stats {
							ctx.Stats = NewStatsRecorder(nil, root, 0, 0)
						}
						if tc == "canceled-mid-scan" {
							// No consumer checks more than three times a
							// block: the eighth check has a block behind
							// it and a block ahead.
							ctx.Ctx = newCancelAtCheck(8, cause)
						}
						err := runTree(ctx, root)
						if err == nil {
							t.Fatal("the slice ended cleanly")
						}
						if tc == "canceled-mid-scan" && !errors.Is(err, cause) {
							t.Fatalf("got %v, want the cancellation cause", err)
						}
						if stats {
							got := scanBatches(t, ctx.Stats)
							if tc == "fails-at-open" && got != 0 || tc != "fails-at-open" && (got == 0 || got >= nblocks) {
								t.Errorf("the scan delivered %d of %d blocks before it stopped (%v)", got, nblocks, err)
							}
						}
						if b, v := types.PoolInUse(), types.VecPoolInUse(); b != batches || v != vecs {
							t.Errorf("pooled batches in use %d → %d, vector batches %d → %d", batches, b, vecs, v)
						}
					})
				}
			}
		})
	}
}

// TestVecModeScanRejectsNextBatch has the name of a mode that is gone: a
// scan serves NextBatch and NextVecBatch alike, each call taking the next
// block, so the two interleaved on one scan yield every surviving row
// exactly once.
func TestVecModeScanRejectsNextBatch(t *testing.T) {
	const nrows = 20000
	fs, desc, segFiles := writeIntsTable(t, nrows)
	filter := expr.NewBinOp(expr.OpLt, &expr.ColRef{Idx: 1, K: types.KindInt64}, expr.NewConst(types.NewInt64(48)))
	op := mustBuild(t, &Context{Segment: 0, FS: fs}, &plan.Scan{Table: desc, Proj: []int{0, 1, 2}, SegFiles: segFiles, Schema: desc.Schema, Filter: filter})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	b := types.GetBatch(0)
	defer types.PutBatch(b)
	seen := map[int64]bool{}
	see := func(row types.Row) {
		if k := row[0].I; seen[k] || k%97 >= 48 {
			t.Fatalf("row %v twice, or past the filter", row)
		}
		seen[row[0].I] = true
	}
	var rr types.RowReader
	calls := [2]int{}
	for i := 0; ; i++ {
		if i%2 == 0 {
			ok, err := op.NextBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for r := 0; r < b.Len(); r++ {
				see(b.Row(r))
			}
		} else {
			vb, err := op.(VecSource).NextVecBatch()
			if err != nil {
				t.Fatal(err)
			}
			if vb == nil {
				break
			}
			rr.Reset(vb, nil)
			for r := 0; r < vb.SelCount(); r++ {
				see(rr.Row(r))
			}
			types.PutVecBatch(vb)
		}
		calls[i%2]++
	}
	want := 0
	for i := 0; i < nrows; i++ {
		if i%97 < 48 {
			want++
		}
	}
	if len(seen) != want || calls[0] == 0 || calls[1] == 0 {
		t.Fatalf("%d rows (want %d) over %d row and %d vector batches", len(seen), want, calls[0], calls[1])
	}
	if ok, err := op.NextBatch(b); ok || err != nil {
		t.Fatalf("NextBatch past the end = (%v, %v)", ok, err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSliceStartsNoGoroutine: a slice runs on the goroutine that drains
// it. With a table scan on one side of a join and an external scan on
// the other, the process has as many goroutines while rows come out as
// it had before Open.
func TestSliceStartsNoGoroutine(t *testing.T) {
	fs, desc, segFiles := writeIntsTable(t, 20000)
	var ext []types.Row
	for i := 0; i < 2000; i++ {
		ext = append(ext, types.Row{types.NewInt64(int64(i % 97))})
	}
	if err := pxf.WriteTextFile(fs, "/ext/rk.txt", "|", ext); err != nil {
		t.Fatal(err)
	}
	extDesc := &catalog.TableDesc{OID: 2, Name: "rk", Schema: intsSchema("rk"), Location: "pxf://svc/ext/rk.txt?profile=text"}
	tree := &plan.HashJoin{
		Kind:     plan.InnerJoin,
		Left:     &plan.Scan{Table: desc, Proj: []int{0, 1, 2}, SegFiles: segFiles, Schema: desc.Schema},
		Right:    &plan.ExternalScan{Table: extDesc, Proj: []int{0}, Schema: extDesc.Schema, NumSegments: 1},
		LeftKeys: []int{1}, RightKeys: []int{0}, Schema: intsSchema("k", "v", "w", "rk"),
	}
	op := mustBuild(t, &Context{Segment: 0, FS: fs, External: pxf.NewEngine(fs)}, tree)
	before := runtime.NumGoroutine()
	rows := 0
	err := Drain(nil, op, func(types.Row) error {
		if rows++; rows%1000 == 1 {
			if now := runtime.NumGoroutine(); now != before {
				t.Fatalf("%d goroutines at output row %d, %d before Open", now, rows, before)
			}
		}
		return nil
	})
	if err != nil || rows < 20000 {
		t.Fatalf("%d rows, err %v", rows, err)
	}
}
