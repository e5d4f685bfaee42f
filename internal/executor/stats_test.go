package executor

import (
	"testing"

	"hawq/internal/types"
)

// TestStatsRecorderCounts drives the scan → filter → project tree with
// instrumentation on and checks the recorded per-operator counts: the
// root sees exactly the rows the pipeline emits, leaves at least as
// many, and every operator reports batches.
func TestStatsRecorderCounts(t *testing.T) {
	const nrows = 4096
	fs, desc, segFiles := writeIntsTable(t, nrows)
	tree := sfpTree(desc, segFiles)
	ctx := &Context{Segment: 0, FS: fs}
	ctx.Stats = NewStatsRecorder(nil, tree, 0, 0)
	n := 0
	if err := Drain(nil, mustBuild(t, ctx, tree), func(types.Row) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	st := ctx.Stats.Stats()
	if st.Slice != 0 || len(st.Ops) == 0 {
		t.Fatalf("bad slice stats: %+v", st)
	}
	root, leaf := st.Ops[0], st.Ops[len(st.Ops)-1]
	if root.Rows != int64(n) {
		t.Errorf("root rows = %d, drained %d", root.Rows, n)
	}
	if leaf.Rows < root.Rows {
		t.Errorf("leaf rows %d < root rows %d", leaf.Rows, root.Rows)
	}
	if root.Batches == 0 {
		t.Error("recorded zero batches at the root")
	}
}

// BenchmarkStatsOverhead measures the cost of per-operator
// instrumentation on the scan → filter → project pipeline: /batch_off
// builds the bare operator tree, /batch_on wraps every operator in a
// stats decorator (two clock reads per batch plus counter adds). The
// acceptance budget is <5%.
func BenchmarkStatsOverhead(b *testing.B) {
	const nrows = 20000
	fs, desc, segFiles := writeIntsTable(b, nrows)
	tree := sfpTree(desc, segFiles)
	for _, inst := range []struct {
		name string
		on   bool
	}{{"batch_off", false}, {"batch_on", true}} {
		b.Run(inst.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := &Context{Segment: 0, FS: fs}
				if inst.on {
					ctx.Stats = NewStatsRecorder(nil, tree, 0, 0)
				}
				n := 0
				if err := Drain(nil, mustBuild(b, ctx, tree), func(types.Row) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("no rows")
				}
				if inst.on {
					st := ctx.Stats.Stats()
					if len(st.Ops) == 0 || st.Ops[0].Rows != int64(n) {
						b.Fatalf("bad stats: %+v", st)
					}
				}
			}
		})
	}
}
