package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/clock"
	"hawq/internal/obs"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// newSimEngine boots an engine on a simulated clock and stops the
// scheduler's own loop: sim.Advance would fire its ticker too, and that
// background pass raced the test's TickOnce into an extra task run
// (seen under -race). Every maintenance pass now happens exactly when
// the test calls TickOnce — the whole suite is deterministic.
func newSimEngine(t testing.TB, segments int, mut func(*Config)) (*Engine, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Unix(0, 0))
	cfg := Config{Segments: segments, SpillDir: t.TempDir(), Clock: sim, TaskSweep: true}
	if mut != nil {
		mut(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if sched := e.TaskScheduler(); sched != nil {
		sched.Stop()
	}
	// Move off the zero instant so "never ran" (0) stays distinguishable
	// from real timestamps.
	sim.Advance(time.Second)
	return e, sim
}

// taskRow finds one task's row in SHOW tasks output (nil if absent).
func taskRow(t testing.TB, s *Session, name string) map[string]string {
	t.Helper()
	res := mustExec(t, s, "SHOW tasks")
	for _, r := range res.Rows {
		if r[0].S == name {
			row := map[string]string{}
			for i, c := range res.Schema.Columns {
				row[c.Name] = r[i].String()
			}
			return row
		}
	}
	return nil
}

func TestCreateTaskPeriodicE2E(t *testing.T) {
	e, sim := newSimEngine(t, 2, func(c *Config) { c.TaskSweep = false })
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE audit (n INT8 NOT NULL)")
	runsBefore := obs.GetCounter("task.runs").Value()
	mustExec(t, s, "CREATE TASK heartbeat SCHEDULE EVERY 5 SECONDS AS INSERT INTO audit VALUES (1)")

	count := func() int64 {
		return mustExec(t, s, "SELECT count(*) FROM audit").Rows[0][0].Int()
	}
	ctx := context.Background()
	sched := e.TaskScheduler()
	sched.TickOnce(ctx)
	if got := count(); got != 0 {
		t.Fatalf("task fired before its interval elapsed: %d rows", got)
	}
	// Each elapsed interval fires exactly one run.
	for want := int64(1); want <= 3; want++ {
		sim.Advance(5 * time.Second)
		sched.TickOnce(ctx)
		if got := count(); got != want {
			t.Fatalf("after %d intervals: %d rows, want %d", want, got, want)
		}
	}
	// A tick with no elapsed interval runs nothing.
	sched.TickOnce(ctx)
	if got := count(); got != 3 {
		t.Fatalf("extra run without interval elapse: %d rows", got)
	}
	if got := obs.GetCounter("task.runs").Value() - runsBefore; got != 3 {
		t.Errorf("task.runs delta = %d, want 3", got)
	}

	// SHOW tasks reflects the requeued state.
	row := taskRow(t, s, "heartbeat")
	if row == nil {
		t.Fatal("SHOW tasks does not list heartbeat")
	}
	if row["state"] != catalog.TaskQueued || row["kind"] != catalog.TaskKindStatement {
		t.Errorf("SHOW tasks row = %v", row)
	}
	if row["interval"] != "5s" || row["last_run"] == "" || row["next_run"] == "" {
		t.Errorf("SHOW tasks schedule columns = %v", row)
	}
}

func TestCreateTaskReservedNameAndDrop(t *testing.T) {
	e, _ := newSimEngine(t, 2, func(c *Config) { c.TaskSweep = false })
	s := e.NewSession()
	if _, err := s.Query("CREATE TASK auto_sneaky SCHEDULE EVERY 1 SECOND AS SELECT 1"); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("auto_ name accepted: %v", err)
	}
	mustExec(t, s, "CREATE TASK Nightly SCHEDULE EVERY 1 HOUR AS SELECT 1")
	if _, err := s.Query("CREATE TASK nightly SCHEDULE EVERY 1 HOUR AS SELECT 1"); err == nil {
		t.Error("duplicate CREATE TASK succeeded")
	}
	mustExec(t, s, "DROP TASK nightly")
	if _, err := s.Query("DROP TASK nightly"); err == nil {
		t.Error("DROP TASK of missing task succeeded")
	}
	mustExec(t, s, "DROP TASK IF EXISTS nightly")
}

// TestAutoAnalyzeChangesPlanE2E: statistics are written with the data,
// so a committed load changes the plan at once, with no ANALYZE and no
// scheduler pass. While big holds 2 rows the planner builds the join's
// hash table on it (the build side, listed second); a 300-row load into
// big flips the sides, and a rolled-back load does not.
func TestAutoAnalyzeChangesPlanE2E(t *testing.T) {
	e, _ := newSimEngine(t, 2, nil)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE big (id INT8 NOT NULL, v INT8) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE TABLE small (id INT8 NOT NULL, v INT8) DISTRIBUTED BY (id)")
	mustExec(t, s, "INSERT INTO big VALUES (1, 1), (2, 2)")
	mustExec(t, s, "INSERT INTO small VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)")

	explain := func() string {
		res := mustExec(t, s, "EXPLAIN SELECT big.v, small.v FROM big, small WHERE big.id = small.id")
		var b strings.Builder
		for _, r := range res.Rows {
			b.WriteString(r[0].S)
			b.WriteByte('\n')
		}
		return b.String()
	}
	scanIdx := func(text, table string) int {
		i := strings.Index(text, "Table Scan ("+table+")")
		if i < 0 {
			t.Fatalf("no scan of %s in plan:\n%s", table, text)
		}
		return i
	}

	before := explain()
	if scanIdx(before, "big") < scanIdx(before, "small") {
		t.Fatalf("a 2-row big should be the build side:\n%s", before)
	}
	mustExec(t, s, "BEGIN")
	insertRange(t, s, "big", 10, 310)
	mustExec(t, s, "ROLLBACK")
	if got := explain(); got != before {
		t.Fatalf("a rolled-back load changed the plan:\n%s", got)
	}
	insertRange(t, s, "big", 10, 310)
	after := explain()
	if scanIdx(after, "small") < scanIdx(after, "big") {
		t.Fatalf("after the load small should be the build side:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if row := taskRow(t, s, "auto_analyze_big"); row != nil {
		t.Errorf("a load enqueued a task: %v", row)
	}
}

func insertRange(t testing.TB, s *Session, table string, lo, hi int) {
	t.Helper()
	var vals []string
	for i := lo; i < hi; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i))
	}
	mustExec(t, s, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
}

// TestTruncateReloadRecomputesStats: TRUNCATE deletes the lanes and with
// them their statistics, so a reload's statistics describe the reload
// alone — an ANALYZE before the TRUNCATE leaves nothing behind.
func TestTruncateReloadRecomputesStats(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT8 NOT NULL, v INT8) DISTRIBUTED BY (id)")
	insertRange(t, s, "t", 0, 100)
	mustExec(t, s, "ANALYZE t")
	if st := colStats(t, e, "t"); len(st) != 2 || st[0].NDistinct != 100 || st[0].Min.Int() != 0 || st[0].Max.Int() != 99 {
		t.Fatalf("statistics after the load = %+v", st)
	}
	mustExec(t, s, "TRUNCATE t")
	if st := colStats(t, e, "t"); st != nil {
		t.Fatalf("statistics after TRUNCATE = %+v", st)
	}
	insertRange(t, s, "t", 500, 510)
	if st := colStats(t, e, "t"); len(st) != 2 || st[0].NDistinct != 10 || st[0].Min.Int() != 500 || st[0].Max.Int() != 509 {
		t.Errorf("statistics after the reload of ids 500-509 = %+v", st)
	}
}

// TestParentStatsMergePartitions: a partitioned table's statistics are
// its partitions' lanes merged, with no ANALYZE of either.
func TestParentStatsMergePartitions(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE p (k INT8, d DATE)
		DISTRIBUTED BY (k) PARTITION BY RANGE (d)
		(START (DATE '2008-01-01') INCLUSIVE END (DATE '2008-04-01') EXCLUSIVE EVERY (INTERVAL '1 month'))`)
	var vals []string
	for i := 0; i < 240; i++ {
		vals = append(vals, fmt.Sprintf("(%d, DATE '2008-0%d-1%d')", i, i%3+1, i%9))
	}
	mustExec(t, s, "INSERT INTO p VALUES "+strings.Join(vals, ", "))
	for m, part := range []string{"p_1_prt_1", "p_1_prt_2", "p_1_prt_3"} {
		st := colStats(t, e, part)
		if len(st) != 2 || math.Abs(st[0].NDistinct-80) > 2 || st[1].Min.String() != fmt.Sprintf("2008-0%d-1%d", m+1, m) || st[1].NDistinct != 3 {
			t.Errorf("%s statistics = %+v", part, st)
		}
	}
	st := colStats(t, e, "p")
	if len(st) != 2 || math.Abs(st[0].NDistinct-240) > 7 || st[0].Min.Int() != 0 || st[0].Max.Int() != 239 ||
		st[1].Min.String() != "2008-01-10" || st[1].Max.String() != "2008-03-18" || st[1].NDistinct != 9 {
		t.Errorf("p statistics = %+v", st)
	}
}

// TestRolledBackCopyLeavesStats: an aborted COPY never replaces the
// lanes' rows, so the statistics are exactly as before it; the same
// COPY committed moves them.
func TestRolledBackCopyLeavesStats(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT8 NOT NULL, v INT8) DISTRIBUTED BY (id)")
	rows := func(lo int) []types.Row {
		out := make([]types.Row, 100)
		for i := range out {
			out[i] = types.Row{types.NewInt64(int64(lo + i)), types.NewInt64(int64(i % 10))}
		}
		return out
	}
	if _, err := s.CopyFrom("t", rows(0)); err != nil {
		t.Fatal(err)
	}
	before := colStats(t, e, "t")
	mustExec(t, s, "BEGIN")
	if _, err := s.CopyFrom("t", rows(1000)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "ROLLBACK")
	if after := colStats(t, e, "t"); !reflect.DeepEqual(after, before) {
		t.Fatalf("a rolled-back COPY changed the statistics:\n%+v\nwant %+v", after, before)
	}
	if _, err := s.CopyFrom("t", rows(1000)); err != nil {
		t.Fatal(err)
	}
	if st := colStats(t, e, "t"); st[0].Max.Int() != 1099 || st[0].NDistinct < 190 || st[0].NDistinct > 210 || st[1].NDistinct != 10 {
		t.Errorf("statistics after a committed COPY = %+v", st)
	}
}

// TestInsertLogsOnlySegfileUpdates pins the catalog writes of one INSERT
// transaction into a table whose lanes exist: per lane it wrote, the
// MVCC update of its hawq_aoseg row (a delete and an insert), then the
// commit. The row count lives in those rows; nothing else is logged.
func TestInsertLogsOnlySegfileUpdates(t *testing.T) {
	e := newTestEngine(t, 2)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE w (k INT8) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO w VALUES (1), (2), (3), (4)")
	var logged []tx.Record
	w := e.Cluster().WAL()
	sub := w.Subscribe(func(r tx.Record) { logged = append(logged, r) })
	mustExec(t, s, "INSERT INTO w VALUES (5), (6), (7), (8)")
	w.Unsubscribe(sub)
	n := len(logged)
	var kinds []string
	for _, r := range logged {
		kinds = append(kinds, fmt.Sprintf("%v %s", r.Type, r.Table))
	}
	want := "DELETE hawq_aoseg, INSERT hawq_aoseg, DELETE hawq_aoseg, INSERT hawq_aoseg, COMMIT "
	if got := strings.Join(kinds, ", "); got != want {
		t.Errorf("one INSERT logged %d records: %s\nwant 5: %s", n, got, want)
	}
}

// fragmentTable loads 4*rowsPerTxn rows through four concurrent insert
// transactions: each holds its swimming lane open until every INSERT
// ran, so the table ends up with four small segfiles per segment.
func fragmentTable(t testing.TB, e *Engine, table string, rowsPerTxn int) {
	t.Helper()
	sessions := make([]*Session, 4)
	for i := range sessions {
		si := e.NewSession()
		mustExec(t, si, "BEGIN")
		var vals []string
		for j := 0; j < rowsPerTxn; j++ {
			id := i*rowsPerTxn + j
			vals = append(vals, fmt.Sprintf("(%d, 'row-%d')", id, id))
		}
		mustExec(t, si, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
		sessions[i] = si
	}
	for _, si := range sessions {
		mustExec(t, si, "COMMIT")
	}
}

// segFileState snapshots a table's populated segfiles and total tuples.
func segFileState(t testing.TB, e *Engine, table string) (files []string, tuples int64) {
	t.Helper()
	tr := e.cl.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Abort()
	cat := e.cl.Cat()
	desc, err := cat.LookupTable(tr.Snapshot(), table)
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range cat.AllSegFiles(tr.Snapshot(), desc.OID) {
		if sf.Tuples > 0 {
			files = append(files, sf.Path)
			tuples += sf.Tuples
		}
	}
	return files, tuples
}

// assertNoOrphans checks every HDFS file under the table's lane
// directories is backed by a catalog segfile row.
func assertNoOrphans(t testing.TB, e *Engine, table string) {
	t.Helper()
	tr := e.cl.TxMgr.Begin(tx.ReadCommitted)
	defer tr.Abort()
	cat := e.cl.Cat()
	desc, err := cat.LookupTable(tr.Snapshot(), table)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, sf := range cat.AllSegFiles(tr.Snapshot(), desc.OID) {
		known[sf.Path] = true
	}
	for segID := 0; segID < e.cl.NumSegments(); segID++ {
		dir := fmt.Sprintf("/hawq/data/%d/%d", desc.OID, segID)
		entries, err := e.cl.FS.List(dir)
		if err != nil {
			continue // segment never materialized a lane
		}
		for _, st := range entries {
			if !known[st.Path] {
				t.Errorf("orphaned HDFS file %s (not in catalog)", st.Path)
			}
		}
	}
}

func TestAutoCompactionE2E(t *testing.T) {
	e, sim := newSimEngine(t, 2, nil)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE frag (id INT8 NOT NULL, v TEXT) DISTRIBUTED BY (id)")
	fragmentTable(t, e, "frag", 8)

	before := rowsString(mustExec(t, s, "SELECT id, v FROM frag ORDER BY id"))
	if len(before) != 32 {
		t.Fatalf("loaded %d rows, want 32", len(before))
	}
	filesBefore, tuplesBefore := segFileState(t, e, "frag")
	if len(filesBefore) < 6 {
		t.Fatalf("expected a fragmented table, got %d populated segfiles", len(filesBefore))
	}

	sim.Advance(time.Second)
	e.TaskScheduler().TickOnce(context.Background())

	filesAfter, tuplesAfter := segFileState(t, e, "frag")
	if len(filesAfter) >= len(filesBefore) {
		t.Fatalf("compaction did not reduce segfiles: %d -> %d", len(filesBefore), len(filesAfter))
	}
	if len(filesAfter) != e.cl.NumSegments() {
		t.Errorf("want one merged file per segment, got %d", len(filesAfter))
	}
	if tuplesAfter != tuplesBefore {
		t.Errorf("catalog tuples changed: %d -> %d", tuplesBefore, tuplesAfter)
	}
	after := rowsString(mustExec(t, s, "SELECT id, v FROM frag ORDER BY id"))
	if strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatalf("SELECT changed across compaction:\nbefore: %v\nafter: %v", before, after)
	}
	assertNoOrphans(t, e, "frag")
	if row := taskRow(t, s, "auto_compact_frag"); row != nil {
		t.Errorf("auto task still present after success: %v", row)
	}

	// The table stays writable and readable through the merged lane.
	mustExec(t, s, "INSERT INTO frag VALUES (100, 'post-compact')")
	if got := mustExec(t, s, "SELECT count(*) FROM frag").Rows[0][0].Int(); got != 33 {
		t.Errorf("count after post-compaction insert = %d", got)
	}
}

// TestCompactionAbortLeavesOldSetIntact is the mid-compaction fault
// test: a canceled compaction must leave exactly the old segfile set —
// never a mix — and no orphaned HDFS bytes; a later attempt succeeds.
func TestCompactionAbortLeavesOldSetIntact(t *testing.T) {
	e, _ := newSimEngine(t, 2, func(c *Config) { c.TaskSweep = false })
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE frag (id INT8 NOT NULL, v TEXT) DISTRIBUTED BY (id)")
	fragmentTable(t, e, "frag", 8)

	before := rowsString(mustExec(t, s, "SELECT id, v FROM frag ORDER BY id"))
	filesBefore, _ := segFileState(t, e, "frag")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.CompactTable(ctx, "frag"); err == nil {
		t.Fatal("canceled compaction reported success")
	}
	filesMid, _ := segFileState(t, e, "frag")
	if strings.Join(filesMid, ",") != strings.Join(filesBefore, ",") {
		t.Fatalf("aborted compaction changed the segfile set:\nbefore: %v\nafter: %v", filesBefore, filesMid)
	}
	assertNoOrphans(t, e, "frag")
	mid := rowsString(mustExec(t, s, "SELECT id, v FROM frag ORDER BY id"))
	if strings.Join(mid, "\n") != strings.Join(before, "\n") {
		t.Fatal("aborted compaction changed SELECT results")
	}

	if err := e.CompactTable(context.Background(), "frag"); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	filesAfter, _ := segFileState(t, e, "frag")
	if len(filesAfter) >= len(filesBefore) {
		t.Fatalf("retried compaction did not reduce segfiles: %d -> %d", len(filesBefore), len(filesAfter))
	}
	after := rowsString(mustExec(t, s, "SELECT id, v FROM frag ORDER BY id"))
	if strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatal("compaction changed SELECT results")
	}
	assertNoOrphans(t, e, "frag")
}

// TestCompactionKeepsStats: compaction rewrites the same values into
// one lane, so the merged lane's statistics — registers, NULLs, min and
// max — are exactly what the small lanes' added up to.
func TestCompactionKeepsStats(t *testing.T) {
	e, _ := newSimEngine(t, 2, func(c *Config) { c.TaskSweep = false })
	mustExec(t, e.NewSession(), "CREATE TABLE frag (id INT8 NOT NULL, v TEXT) DISTRIBUTED BY (id)")
	fragmentTable(t, e, "frag", 8)
	before := colStats(t, e, "frag")
	filesBefore, _ := segFileState(t, e, "frag")
	if err := e.CompactTable(context.Background(), "frag"); err != nil {
		t.Fatal(err)
	}
	if filesAfter, _ := segFileState(t, e, "frag"); len(filesAfter) >= len(filesBefore) {
		t.Fatalf("compaction did not reduce segfiles: %d -> %d", len(filesBefore), len(filesAfter))
	}
	if after := colStats(t, e, "frag"); !reflect.DeepEqual(after, before) || len(after) != 2 || after[0].NDistinct != 32 {
		t.Errorf("statistics across compaction:\n%+v\nwant %+v", after, before)
	}
}

// TestFailoverTaskHandoffE2E walks the master-failover protocol: a task
// claimed by a dead owner rides the WAL to the standby; Promote resumes
// the paused scheduler, which honours the dead lease until expiry, then
// reclaims and runs the task exactly once against the promoted catalog.
func TestFailoverTaskHandoffE2E(t *testing.T) {
	e, sim := newSimEngine(t, 2, func(c *Config) {
		c.TaskSweep = false
		c.TaskLease = 10 * time.Second
	})
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE beats (n INT8 NOT NULL)")
	mustExec(t, s, "CREATE TASK pulse SCHEDULE EVERY 1 SECOND AS INSERT INTO beats VALUES (1)")

	// Simulate the failed primary's half-finished cycle: the task row
	// shows a claim under a lease that has not yet expired.
	now := sim.Now().UnixNano()
	tr := e.cl.TxMgr.Begin(tx.ReadCommitted)
	d, err := e.cl.Cat().LookupTask(tr.Snapshot(), "pulse")
	if err != nil {
		t.Fatal(err)
	}
	d.State = catalog.TaskClaimed
	d.Owner = "qd-dead"
	d.LeaseExpiry = now + int64(10*time.Second)
	if err := e.cl.Cat().UpdateTask(tr, *d); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}

	// Failover: scheduler paused (standby role), catalog replica catches
	// up over the WAL, promotion swaps it in and resumes the scheduler.
	e.TaskScheduler().Pause()
	sb := e.cl.StartStandby()
	e.cl.Promote()
	if err := sb.Err(); err != nil {
		t.Fatalf("standby diverged: %v", err)
	}

	count := func() int64 {
		return mustExec(t, s, "SELECT count(*) FROM beats").Rows[0][0].Int()
	}
	ctx := context.Background()
	// The dead owner's lease is honoured until it expires: no double run.
	sim.Advance(5 * time.Second)
	e.TaskScheduler().TickOnce(ctx)
	if got := count(); got != 0 {
		t.Fatalf("task ran while the dead owner's lease was live: %d rows", got)
	}
	// Past expiry the survivor reclaims and runs it — exactly once.
	sim.Advance(6 * time.Second)
	e.TaskScheduler().TickOnce(ctx)
	if got := count(); got != 1 {
		t.Fatalf("after lease expiry: %d runs, want exactly 1", got)
	}
	row := taskRow(t, s, "pulse")
	if row == nil {
		t.Fatal("task row lost across failover")
	}
	if row["state"] != catalog.TaskQueued || row["owner"] != "" || row["last_run"] == "" {
		t.Errorf("task after handoff = %v", row)
	}
}
