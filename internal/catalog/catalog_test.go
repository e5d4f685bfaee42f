package catalog

import (
	"strings"
	"testing"

	"hawq/internal/tx"
	"hawq/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "o_orderkey", Kind: types.KindInt64, NotNull: true},
		types.Column{Name: "o_custkey", Kind: types.KindInt32, NotNull: true},
		types.Column{Name: "o_totalprice", Kind: types.KindDecimal, Scale: 2},
		types.Column{Name: "o_orderdate", Kind: types.KindDate},
	)
}

func newEnv() (*Catalog, *tx.Manager) {
	return New(tx.NewWAL()), tx.NewManager()
}

func TestCreateLookupDropTable(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	oid, err := c.CreateTable(tr, &TableDesc{
		Name:    "orders",
		Schema:  testSchema(),
		Dist:    DistPolicy{Cols: []int{0}},
		Storage: StorageSpec{Orientation: OrientColumn, Codec: "zlib-5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if oid == 0 {
		t.Fatal("zero oid")
	}
	// Visible to own transaction before commit.
	desc, err := c.LookupTable(tr.Snapshot(), "ORDERS")
	if err != nil {
		t.Fatal(err)
	}
	if desc.OID != oid || desc.Schema.Len() != 4 || desc.Storage.Codec != "zlib-5" {
		t.Errorf("desc = %+v", desc)
	}
	if desc.Schema.Columns[2].Kind != types.KindDecimal || desc.Schema.Columns[2].Scale != 2 {
		t.Errorf("decimal column = %+v", desc.Schema.Columns[2])
	}
	// Invisible to a concurrent transaction.
	other := m.Begin(tx.ReadCommitted)
	if _, err := c.LookupTable(other.Snapshot(), "orders"); err == nil {
		t.Error("uncommitted table visible to other tx")
	}
	tr.Commit()
	if _, err := c.LookupTable(other.Snapshot(), "orders"); err != nil {
		t.Errorf("committed table invisible: %v", err)
	}
	other.Commit()

	// Duplicate name rejected.
	tr2 := m.Begin(tx.ReadCommitted)
	if _, err := c.CreateTable(tr2, &TableDesc{Name: "orders", Schema: testSchema()}); err == nil {
		t.Error("duplicate create accepted")
	}
	if err := c.DropTable(tr2, "orders"); err != nil {
		t.Fatal(err)
	}
	tr2.Commit()
	tr3 := m.Begin(tx.ReadCommitted)
	if _, err := c.LookupTable(tr3.Snapshot(), "orders"); err == nil {
		t.Error("dropped table still visible")
	}
	tr3.Commit()
}

func TestAbortedCreateInvisible(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	if _, err := c.CreateTable(tr, &TableDesc{Name: "ghost", Schema: testSchema()}); err != nil {
		t.Fatal(err)
	}
	tr.Abort()
	tr2 := m.Begin(tx.ReadCommitted)
	defer tr2.Commit()
	if _, err := c.LookupTable(tr2.Snapshot(), "ghost"); err == nil {
		t.Error("aborted create visible")
	}
	// Name is reusable after the abort.
	if _, err := c.CreateTable(tr2, &TableDesc{Name: "ghost", Schema: testSchema()}); err != nil {
		t.Errorf("recreate after abort: %v", err)
	}
}

func TestPartitionChildren(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	parentOID, err := c.CreateTable(tr, &TableDesc{
		Name: "sales", Schema: testSchema(),
		PartKind: PartRange, PartCol: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, bounds := range [][2]string{{"2008-01-01", "2008-02-01"}, {"2008-02-01", "2008-03-01"}} {
		_, err := c.CreateTable(tr, &TableDesc{
			Name: "sales_1_prt_" + string(rune('1'+i)), Schema: testSchema(),
			ParentOID: parentOID, PartKind: PartRange, PartCol: 3,
			RangeLo: types.MustParseDate(bounds[0]), RangeHi: types.MustParseDate(bounds[1]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	kids, err := c.PartitionChildren(tr.Snapshot(), parentOID)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 {
		t.Fatalf("children = %d", len(kids))
	}
	if kids[0].RangeLo.String() != "2008-01-01" || kids[0].RangeHi.String() != "2008-02-01" {
		t.Errorf("bounds = %v..%v", kids[0].RangeLo, kids[0].RangeHi)
	}
	parent, _ := c.LookupTable(tr.Snapshot(), "sales")
	if !parent.IsPartitionParent() || parent.PartCol != 3 {
		t.Errorf("parent = %+v", parent)
	}
	if !kids[0].IsPartitionChild() {
		t.Error("child flag wrong")
	}
	// Dropping the parent drops children too.
	if err := c.DropTable(tr, "sales"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LookupTable(tr.Snapshot(), "sales_1_prt_1"); err == nil {
		t.Error("child survived parent drop")
	}
	tr.Commit()
}

func TestSegFileVisibilityAcrossTransactions(t *testing.T) {
	c, m := newEnv()
	setup := m.Begin(tx.ReadCommitted)
	oid, _ := c.CreateTable(setup, &TableDesc{Name: "t", Schema: testSchema()})
	c.AddSegFile(setup, SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: "/hawq/t/0/1"})
	setup.Commit()

	// Writer advances the logical length but has not committed.
	writer := m.Begin(tx.ReadCommitted)
	if err := c.UpdateSegFile(writer, SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: "/hawq/t/0/1", LogicalLen: 500, Tuples: 10}); err != nil {
		t.Fatal(err)
	}
	reader := m.Begin(tx.ReadCommitted)
	files := c.SegFiles(reader.Snapshot(), oid, 0)
	if len(files) != 1 || files[0].LogicalLen != 0 {
		t.Fatalf("reader sees %+v, want logical length 0", files)
	}
	// Writer sees its own update.
	files = c.SegFiles(writer.Snapshot(), oid, 0)
	if len(files) != 1 || files[0].LogicalLen != 500 {
		t.Fatalf("writer sees %+v", files)
	}
	writer.Commit()
	files = c.SegFiles(reader.Snapshot(), oid, 0)
	if files[0].LogicalLen != 500 {
		t.Errorf("after commit reader sees %d", files[0].LogicalLen)
	}
	reader.Commit()

	// Aborted advance leaves the logical length untouched.
	ab := m.Begin(tx.ReadCommitted)
	c.UpdateSegFile(ab, SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: "/hawq/t/0/1", LogicalLen: 900})
	ab.Abort()
	check := m.Begin(tx.ReadCommitted)
	defer check.Commit()
	files = c.SegFiles(check.Snapshot(), oid, 0)
	if files[0].LogicalLen != 500 {
		t.Errorf("aborted update leaked: %d", files[0].LogicalLen)
	}
}

func TestSwimmingLaneSegNos(t *testing.T) {
	c, m := newEnv()
	setup := m.Begin(tx.ReadCommitted)
	oid, _ := c.CreateTable(setup, &TableDesc{Name: "t", Schema: testSchema()})
	setup.Commit()

	// Two concurrent writers claim distinct segnos.
	w1 := m.Begin(tx.ReadCommitted)
	w2 := m.Begin(tx.ReadCommitted)
	n1 := c.MaxSegNo(w1.Snapshot(), oid, 0) + 1
	c.AddSegFile(w1, SegFile{TableOID: oid, SegmentID: 0, SegNo: n1})
	n2 := c.MaxSegNo(w2.Snapshot(), oid, 0) + 1
	// w2 cannot see w1's uncommitted file, so the engine layer
	// coordinates lane assignment; here we emulate it.
	if n2 == n1 {
		n2++
	}
	c.AddSegFile(w2, SegFile{TableOID: oid, SegmentID: 0, SegNo: n2})
	w1.Commit()
	w2.Commit()
	r := m.Begin(tx.ReadCommitted)
	defer r.Commit()
	files := c.SegFiles(r.Snapshot(), oid, 0)
	if len(files) != 2 || files[0].SegNo == files[1].SegNo {
		t.Fatalf("files = %+v", files)
	}
	if c.MaxSegNo(r.Snapshot(), oid, 0) != n2 {
		t.Errorf("max segno = %d", c.MaxSegNo(r.Snapshot(), oid, 0))
	}
}

func TestStats(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	oid, _ := c.CreateTable(tr, &TableDesc{Name: "t", Schema: testSchema()})
	if _, ok := c.RelStatsFor(tr.Snapshot(), oid); ok {
		t.Error("stats before analyze")
	}
	c.SetRelStats(tr, oid, RelStats{Rows: 1000})
	rs, ok := c.RelStatsFor(tr.Snapshot(), oid)
	if !ok || rs.Rows != 1000 {
		t.Errorf("rel stats = %+v, %v", rs, ok)
	}
	// Re-analyze replaces.
	c.SetRelStats(tr, oid, RelStats{Rows: 2000})
	rs, _ = c.RelStatsFor(tr.Snapshot(), oid)
	if rs.Rows != 2000 {
		t.Errorf("replaced stats = %+v", rs)
	}
	tr.Commit()
}

func TestSegments(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	for i := 0; i < 3; i++ {
		c.RegisterSegment(tr, SegmentInfo{ID: i, Host: "host", Port: 7000 + i, Status: "up"})
	}
	if err := c.SetSegmentStatus(tr, 1, "down"); err != nil {
		t.Fatal(err)
	}
	segs := c.Segments(tr.Snapshot())
	if len(segs) != 3 || segs[1].Status != "down" || segs[0].Status != "up" {
		t.Fatalf("segments = %+v", segs)
	}
	if err := c.SetSegmentStatus(tr, 99, "down"); err == nil {
		t.Error("unknown segment accepted")
	}
	tr.Commit()
}

func TestStandbyReplayFromWAL(t *testing.T) {
	wal := tx.NewWAL()
	primary := New(wal)
	m := tx.NewManager()

	tr := m.Begin(tx.ReadCommitted)
	oid, _ := primary.CreateTable(tr, &TableDesc{
		Name: "orders", Schema: testSchema(), Dist: DistPolicy{Cols: []int{0}},
	})
	primary.AddSegFile(tr, SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: "/p"})
	tr.Commit()

	// Standby attaches: subscribe, copy a snapshot, then stream.
	standby := New(nil)
	wal.Subscribe(func(r tx.Record) {
		if err := standby.ApplyRecord(r); err != nil {
			t.Errorf("apply: %v", err)
		}
	})
	if _, err := standby.RestoreSnapshot(primary.Snapshot(nil, nil)); err != nil {
		t.Fatal(err)
	}
	tr2 := m.Begin(tx.ReadCommitted)
	primary.SetRelStats(tr2, oid, RelStats{Rows: 7})
	tr2.Commit()

	check := m.Begin(tx.ReadCommitted)
	defer check.Commit()
	desc, err := standby.LookupTable(check.Snapshot(), "orders")
	if err != nil {
		t.Fatalf("standby lookup: %v", err)
	}
	if desc.OID != oid || desc.Schema.Len() != 4 || len(desc.Dist.Cols) != 1 {
		t.Errorf("standby desc = %+v", desc)
	}
	rs, ok := standby.RelStatsFor(check.Snapshot(), oid)
	if !ok || rs.Rows != 7 {
		t.Errorf("standby stats = %+v, %v", rs, ok)
	}
	// A table created after failover gets a fresh OID, not a clash.
	tr3 := m.Begin(tx.ReadCommitted)
	newOID, err := standby.CreateTable(tr3, &TableDesc{Name: "post_failover", Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if newOID <= oid {
		t.Errorf("standby oid %d not beyond primary %d", newOID, oid)
	}
	tr3.Commit()
}

func TestCaQLSelectCountDeleteInsertUpdate(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	for i := 0; i < 3; i++ {
		c.RegisterSegment(tr, SegmentInfo{ID: i, Host: "h", Port: 7000 + i, Status: "up"})
	}
	// SELECT with WHERE and projection.
	res, err := c.CaQL(tr, "SELECT segmentid, status FROM hawq_segment WHERE segmentid >= 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Schema.Len() != 2 {
		t.Fatalf("select = %+v", res)
	}
	// COUNT.
	res, err = c.CaQL(tr, "SELECT count(*) FROM hawq_segment WHERE status = 'up'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	// Single-row UPDATE.
	res, err = c.CaQL(tr, "UPDATE hawq_segment SET status = 'down' WHERE segmentid = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Errorf("update affected = %d", res.Affected)
	}
	segs := c.Segments(tr.Snapshot())
	if segs[2].Status != "down" {
		t.Errorf("segment 2 = %+v", segs[2])
	}
	// Multi-row UPDATE rejected.
	if _, err := c.CaQL(tr, "UPDATE hawq_segment SET status = 'x'"); err == nil {
		t.Error("multi-row update accepted")
	}
	// Single-row INSERT.
	res, err = c.CaQL(tr, "INSERT INTO hawq_segment VALUES (9, 'h9', 7009, 'up')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 || len(c.Segments(tr.Snapshot())) != 4 {
		t.Error("insert failed")
	}
	// Multi-row DELETE.
	res, err = c.CaQL(tr, "DELETE FROM hawq_segment WHERE port > 7000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Errorf("delete affected = %d", res.Affected)
	}
	tr.Commit()
}

func TestCaQLRejectsComplexSQL(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	defer tr.Commit()
	bad := []string{
		"SELECT a FROM hawq_segment, hawq_class",
		"SELECT segmentid FROM hawq_segment GROUP BY segmentid",
		"SELECT segmentid FROM hawq_segment ORDER BY segmentid",
		"SELECT x FROM no_such_systable",
		"SELECT nope FROM hawq_segment",
		"INSERT INTO hawq_segment VALUES (1)",
		"CREATE TABLE x (a INT)",
	}
	for _, q := range bad {
		if _, err := c.CaQL(tr, q); err == nil {
			t.Errorf("CaQL accepted %q", q)
		}
	}
}

// TestVacuum: writes reclaim dead versions on their own once a table's
// stored versions have doubled since the last reclaim, an open snapshot
// pins every version it can see, and VACUUM reclaims the rest once no
// snapshot needs them.
func TestVacuum(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	oid, _ := c.CreateTable(tr, &TableDesc{Name: "t", Schema: testSchema()})
	c.AddSegFile(tr, SegFile{TableOID: oid, SegmentID: 0, SegNo: 1})
	tr.Commit()
	sys, _ := c.SysTable(SysAoseg)
	update := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			u := m.Begin(tx.ReadCommitted)
			if err := c.UpdateSegFile(u, SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, LogicalLen: int64(i)}); err != nil {
				t.Fatal(err)
			}
			u.Commit()
		}
	}
	// Ten MVCC updates leave at most twice what a reclaim keeps: the
	// live version and the writer's own two, not ten dead versions.
	update(10)
	if n := sys.Len(); n > 4 {
		t.Fatalf("versions after ten updates = %d, want at most 4", n)
	}
	// An open snapshot pins the version it sees and every later one.
	old := m.Begin(tx.Serializable)
	update(10)
	if n := sys.Len(); n < 11 {
		t.Fatalf("versions under an open snapshot = %d, want at least 11", n)
	}
	if files := c.SegFiles(old.Snapshot(), oid, 0); len(files) != 1 || files[0].LogicalLen != 9 {
		t.Fatalf("open snapshot after reclaim sees %+v", files)
	}
	old.Commit()
	removed := c.VacuumAll(m.Horizon())
	if removed == 0 || sys.Len() != 1 {
		t.Errorf("vacuum removed %d, left %d", removed, sys.Len())
	}
	r := m.Begin(tx.ReadCommitted)
	defer r.Commit()
	files := c.SegFiles(r.Snapshot(), oid, 0)
	if len(files) != 1 || files[0].LogicalLen != 9 {
		t.Errorf("after vacuum files = %+v", files)
	}
}

func TestDistPolicyString(t *testing.T) {
	if s := (DistPolicy{Random: true}).String(); s != "RANDOMLY" {
		t.Errorf("random = %q", s)
	}
	if s := (DistPolicy{Cols: []int{0, 2}}).String(); !strings.Contains(s, "0,2") {
		t.Errorf("hash = %q", s)
	}
}
