package executor

import (
	"fmt"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/hdfs"
	"hawq/internal/plan"
	"hawq/internal/planner"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// TestPartitionedScanFeedsVectors: the planner scans a partitioned table
// as one table, so a hash aggregate and a hash join's probe over it pull
// vectors as they do over a plain table — asserted as
// TestPipelinesMatchReference asserts it — and answer as the same
// operators over an unpartitioned copy of the rows.
func TestPartitionedScanFeedsVectors(t *testing.T) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(tx.NewWAL())
	tr := tx.NewManager().Begin(tx.ReadCommitted)
	defer tr.Commit()
	schema := intsSchema("k", "v")
	co := catalog.StorageSpec{Orientation: catalog.OrientColumn, Codec: "quicklz"}
	create := func(d *catalog.TableDesc, rows []types.Row) (*catalog.TableDesc, []catalog.SegFile) {
		d.Schema, d.Storage = schema, co
		oid, err := cat.CreateTable(tr, d)
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			return d, nil
		}
		_, files := writeCOTable(t, fs, oid, d.Name, schema, rows, 700)
		cat.AddSegFile(tr, files[0])
		return d, files
	}
	parted, _ := create(&catalog.TableDesc{Name: "parted", PartKind: catalog.PartRange, PartCol: 0}, nil)
	var all []types.Row
	for i := 0; i < 3; i++ {
		var rows []types.Row
		for k := i * 1000; k < (i+1)*1000; k++ {
			rows = append(rows, types.Row{types.NewInt64(int64(k)), types.NewInt64(int64(k % 7))})
		}
		create(&catalog.TableDesc{
			Name: fmt.Sprintf("parted_1_prt_%d", i+1), ParentOID: parted.OID, PartKind: catalog.PartRange, PartCol: 0,
			RangeLo: types.NewInt64(int64(i * 1000)), RangeHi: types.NewInt64(int64((i + 1) * 1000)),
		}, rows)
		all = append(all, rows...)
	}
	flat, flatFiles := create(&catalog.TableDesc{Name: "flat"}, all)
	p := &planner.Planner{Cat: cat, Snap: tr.Snapshot(), NumSegments: 1}
	ctx := &Context{Segment: 0, FS: fs}

	// overScan plans sql and returns the operator whose input — what
	// input(n) points at, the probe side for a join — is the scan of
	// parted, and a copy of it over the same scan of flat.
	overScan := func(sql string, input func(plan.Node) *plan.Node) (plan.Node, plan.Node) {
		t.Helper()
		stmt, err := sqlparser.ParseOne(sql)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := p.PlanSelect(stmt.(*sqlparser.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		var found plan.Node
		var scan *plan.Scan
		pl.Walk(func(n plan.Node) {
			if in := input(n); in != nil {
				if s, ok := (*in).(*plan.Scan); ok && s.Table.Name == "parted" {
					found, scan = n, s
				}
			}
		})
		if found == nil || scan.Parts != 3 || len(scan.SegFiles) != 3 {
			t.Fatalf("%s: no operator over one scan of parted's 3 parts:\n%s", sql, pl.Explain())
		}
		copied := *scan
		copied.Table, copied.SegFiles, copied.Parts = flat, flatFiles, 0
		switch n := found.(type) {
		case *plan.HashAgg:
			c := *n
			c.Input = &copied
			return n, &c
		case *plan.HashJoin:
			c := *n
			c.Left = &copied
			return n, &c
		}
		t.Fatalf("%T", found)
		return nil, nil
	}

	agg, flatAgg := overScan("SELECT v, count(*), sum(k) FROM parted WHERE k <> 1500 GROUP BY v", func(n plan.Node) *plan.Node {
		if a, ok := n.(*plan.HashAgg); ok {
			return &a.Input
		}
		return nil
	})
	if op := mustBuild(t, ctx, agg).(*hashAggOp); op.vecIn == nil {
		t.Error("the aggregate over parted does not absorb vectors")
	}
	got := collect(t, ctx, agg)
	if len(got) != 7 {
		t.Errorf("%d groups, want 7", len(got))
	}
	sameRows(t, got, collect(t, ctx, flatAgg), false)

	join, flatJoin := overScan("SELECT p.k, f.v FROM parted p, flat f WHERE p.k = f.k AND f.v = 3", func(n plan.Node) *plan.Node {
		if j, ok := n.(*plan.HashJoin); ok {
			return &j.Left
		}
		return nil
	})
	got = collectJoin(t, ctx, join.(*plan.HashJoin), true)
	if len(got) != 429 { // k ≡ 3 (mod 7) below 3000
		t.Errorf("%d joined rows, want 429", len(got))
	}
	sameRows(t, got, collectJoin(t, ctx, flatJoin.(*plan.HashJoin), true), false)
}
