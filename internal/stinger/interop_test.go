package stinger

import (
	"testing"

	"hawq/internal/engine"
	"hawq/internal/storage"
	"hawq/internal/types"
)

// TestMapReduceReadsHAWQTableFiles exercises §2.1 of the paper: external
// systems (here, a MapReduce job) can bypass SQL and read HAWQ table
// files on HDFS directly through the open storage formats.
func TestMapReduceReadsHAWQTableFiles(t *testing.T) {
	// A HAWQ engine writes a table.
	he, err := engine.New(engine.Config{Segments: 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer he.Close()
	s := he.NewSession()
	if _, err := s.Query("CREATE TABLE metrics (k INT8, v INT8) WITH (appendonly=true, orientation=parquet, compresstype=snappy) DISTRIBUTED BY (k)"); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, types.Row{types.NewInt64(int64(i)), types.NewInt64(int64(i % 10))})
	}
	if _, err := s.CopyFrom("metrics", rows); err != nil {
		t.Fatal(err)
	}

	// A MapReduce job on the SAME HDFS reads the table files directly:
	// the catalog tells us where they are, the storage format is open.
	cl := he.Cluster()
	tr := cl.TxMgr.Begin(0)
	desc, err := cl.Cat().LookupTable(tr.Snapshot(), "metrics")
	if err != nil {
		t.Fatal(err)
	}
	segFiles := cl.Cat().AllSegFiles(tr.Snapshot(), desc.OID)
	tr.Commit()

	rt, err := NewRuntime(cl.FS, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Input: scan every HAWQ segment file (the "InputFormat").
	read := func(split, nsplits int, fn func(types.Row) error) error {
		idx := 0
		for _, sf := range segFiles {
			err := storage.Scan(cl.FS, desc.Storage, desc.Schema, sf, desc.Schema.AllCols(), func(row types.Row) error {
				mine := idx%nsplits == split
				idx++
				if !mine {
					return nil
				}
				return fn(row)
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	// The job: count rows per v (a word-count over HAWQ data).
	mapFn := func(row types.Row, emit func([]byte, types.Row) error) error {
		return emit(types.EncodeDatum(nil, row[1]), types.Row{})
	}
	reduce := func(key []byte, tagged [][]types.Row, emit func(types.Row) error) error {
		k, _, err := types.DecodeDatum(key)
		if err != nil {
			return err
		}
		return emit(types.Row{k, types.NewInt64(int64(len(tagged[0])))})
	}
	parts, err := rt.Run(JobSpec{
		Name:   "count-hawq-rows",
		Inputs: []Input{{Tag: 0, Read: read, Map: mapFn}},
		Reduce: reduce,
		Output: "/mr/out",
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	groups := 0
	err = readSeqSplit(cl.FS, parts, 0, 1, func(r types.Row) error {
		groups++
		if r[1].Int() != 20 {
			t.Errorf("group %v count = %v, want 20", r[0], r[1])
		}
		total += r[1].Int()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if groups != 10 || total != 200 {
		t.Fatalf("groups=%d total=%d", groups, total)
	}
}
