package tpch

import (
	"strings"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/cluster"
	"hawq/internal/engine"
	"hawq/internal/tx"
	"hawq/internal/types"
	"hawq/internal/wal"
)

// committedDump renders the committed catalog through a fresh read
// snapshot.
func committedDump(cat *catalog.Catalog, mgr *tx.Manager) string {
	txn := mgr.Begin(tx.ReadCommitted)
	defer txn.Abort()
	return cat.Dump(txn.Snapshot())
}

// TestDurableClusterKeepsFewSegments: a cluster whose catalog WAL is on a
// disk checkpoints by itself, so a stream of lineitem COPYs, each of
// which logs some 34 KB of lane rows, leaves the log a few segments
// long however long it runs, and a master rebooted from what the disk
// kept holds the same committed catalog.
func TestDurableClusterKeepsFewSegments(t *testing.T) {
	disk := wal.NewFaultDisk()
	e, err := engine.New(engine.Config{Segments: 4, SpillDir: t.TempDir(), WALDisk: disk, DisableTasks: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	names := []string{"li_ao", "li_co", "li_pq"}
	for i, o := range []string{"row", "column", "parquet"} {
		for _, ddl := range DDL(StorageClause(o, "quicklz", 0), DistHash) {
			if strings.HasPrefix(ddl, "CREATE TABLE lineitem ") {
				if _, err := s.Query(strings.Replace(ddl, "CREATE TABLE lineitem ", "CREATE TABLE "+names[i]+" ", 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var pool []types.Row
	g := NewGen(Scale{SF: 0.01, Seed: 1})
	for len(pool) < 2000 {
		g.OrderAndLines(func(_ types.Row, lines []types.Row) { pool = append(pool, lines...) })
	}
	log, most := e.Cluster().Log(), 0
	const copies = 200
	for i := 0; i < copies; i++ {
		off := i * 500 % 1500
		if _, err := s.CopyFrom(names[i%3], pool[off:off+500]); err != nil {
			t.Fatal(err)
		}
		most = max(most, log.Segments())
	}
	// Nine records and 34 KB a COPY: without checkpoints the log would
	// hold some 27 segments of 256 KiB by now, and grow without bound.
	if most > 10 {
		t.Errorf("the log grew to %d segments over %d COPYs", most, copies)
	}
	names, err = disk.List()
	if err != nil {
		t.Fatal(err)
	}
	if files := len(names); files > most+1 {
		t.Errorf("%d files on the disk, the log has %d segments: %v", files, log.Segments(), names)
	}
	m, err := cluster.OpenMaster(cluster.MasterOptions{Disk: disk.Survive()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Recovery.CheckpointLSN == 0 {
		t.Error("the rebooted master found no checkpoint")
	}
	if got, want := committedDump(m.Cat, m.TxMgr), committedDump(e.Cluster().Cat(), e.Cluster().TxMgr); got != want {
		t.Error("the rebooted master's committed catalog differs from the running one's")
	}
}
