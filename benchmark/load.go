package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"hawq/internal/engine"
	"hawq/internal/tpch"
	"hawq/internal/types"
	"hawq/internal/wal"
)

const (
	// loadBatch is the rows of one COPY transaction.
	loadBatch = 500
	// loadPassIters is the iterations of one pass: 49 COPY transactions
	// round-robin over the three tables, then one burst of single-row
	// INSERTs followed by the consistency check.
	loadPassIters = 50
	// loadInserts is the single-row autocommit INSERTs of a burst.
	loadInserts = 20
	// loadPreload is the committed batches each table holds when set-up
	// ends, so set-up exercises the load path and checks scan real data.
	loadPreload = 4
	// loadAbortEvery: one COPY transaction in every run of this many
	// rolls back; which one is drawn from the seed.
	loadAbortEvery = 10
)

// loadTables are the lineitem-schema targets: one per format that
// receives every committed transaction, and beside each a "void" table
// of the same format that receives only the transactions that roll back.
//
// The split works around an engine defect this workload found: once a
// transaction that appended to a table aborts, catalog.UpdateSegFile can
// no longer retire the segment-file row the aborted transaction stamped
// (SysTable.Delete refuses a row whose xmax is already set), so the next
// committed append leaves two visible versions of the lane, scans count
// rows twice and a later append truncates committed data away. Until the
// engine is fixed, committed and aborted appends must not share a table;
// the void tables still exercise HDFS truncate-on-abort (§5.3) and the
// check that aborted batches stay invisible.
var loadTables = []struct{ name, orientation string }{
	{"li_ao", "row"}, {"li_co", "column"}, {"li_pq", "parquet"},
	{"li_ao_void", "row"}, {"li_co_void", "column"}, {"li_pq_void", "parquet"},
}

// loadFormats is the number of storage formats; loadTables[i+loadFormats]
// is the void twin of loadTables[i].
const loadFormats = 3

// loadOp is one iteration of the load loop.
type loadOp struct {
	// inserts marks the single-row INSERT burst; otherwise the op is one
	// COPY transaction.
	inserts  bool
	table    int
	off      int
	rollback bool
}

// loadGen is the seeded iteration stream.
type loadGen struct {
	rng     *rand.Rand
	batch   int
	iter    int
	copies  int
	abortAt int
	// abortsShareTable sends a rollback to the table that also receives
	// commits instead of its void twin: the schedule the issue asked for,
	// which the engine defect described at loadTables makes fail. Only
	// TestAbortOnSharedTableStillFails sets it.
	abortsShareTable bool
}

func newLoadGen(seed int64, batch int) *loadGen {
	return &loadGen{rng: rand.New(rand.NewSource(seed)), batch: batch}
}

func (g *loadGen) next() loadOp {
	g.iter++
	if g.iter%loadPassIters == 0 {
		return loadOp{inserts: true, off: g.rng.Intn(g.poolRows() - loadInserts)}
	}
	k := g.copies
	g.copies++
	if k%loadAbortEvery == 0 {
		g.abortAt = g.rng.Intn(loadAbortEvery)
	}
	op := loadOp{
		table:    k % loadFormats,
		off:      (k % (loadPassIters - 1)) * g.batch,
		rollback: k%loadAbortEvery == g.abortAt,
	}
	if op.rollback && !g.abortsShareTable {
		op.table += loadFormats
	}
	return op
}

// poolRows is the size of the row pool one pass cycles through.
func (g *loadGen) poolRows() int { return (loadPassIters - 1) * g.batch }

// tally is what a table must hold: committed rows and their l_quantity
// sum in cents.
type tally struct{ rows, qty int64 }

// loadState is the write workload: one session against a cluster whose
// catalog WAL sits in a real directory and fsyncs on every commit.
type loadState struct {
	e       *engine.Engine
	s       *engine.Session
	gen     *loadGen
	pool    []types.Row
	tallies []tally
	dir     string
}

func setupLoad(cfg config) (state, error) {
	dir, err := scratchDir(cfg, "wal-")
	if err != nil {
		return nil, err
	}
	disk, err := wal.NewDirDisk(dir)
	if err != nil {
		return nil, err
	}
	// The TCP interconnect, not the default UDP one: this workload's
	// motions carry a few hundred rows, and under UDP at this commit about
	// every second statement sends before its receiver has registered,
	// loses the packet and waits out a 20-40 ms retransmission timer. How
	// often depends on scheduling, so medians flipped between 15 and 55 ms
	// from run to run. The write path is what this workload is for;
	// serve_point and tpch_* keep UDP and report the retransmits.
	e, err := bootEngine(engine.Config{
		Segments: segments, SpillDir: dir, Interconnect: "tcp",
		WALDisk: disk, WALGroupWindow: 0,
	})
	if err != nil {
		return nil, err
	}
	batch := int(loadBatch * cfg.scale)
	if batch < loadInserts {
		batch = loadInserts
	}
	st := &loadState{e: e, s: e.NewSession(), gen: newLoadGen(cfg.seed, batch), dir: dir, tallies: make([]tally, len(loadTables))}
	if err := st.start(cfg); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return st, nil
}

func (st *loadState) start(cfg config) error {
	for _, t := range loadTables {
		if _, err := st.s.Query(lineitemDDL(t.name, t.orientation)); err != nil {
			return err
		}
	}
	st.pool = lineitemPool(cfg.seed, st.gen.poolRows())
	for i := 0; i < loadPreload*len(loadTables); i++ {
		op := loadOp{table: i % len(loadTables), off: (i / len(loadTables)) * st.gen.batch}
		if err := st.copyTxn(op); err != nil {
			return err
		}
	}
	return nil
}

// lineitemDDL is tpch's lineitem definition under another name and
// storage format.
func lineitemDDL(name, orientation string) string {
	for _, ddl := range tpch.DDL(tpch.StorageClause(orientation, "quicklz", 0), tpch.DistHash) {
		if strings.HasPrefix(ddl, "CREATE TABLE lineitem ") {
			return strings.Replace(ddl, "CREATE TABLE lineitem ", "CREATE TABLE "+name+" ", 1)
		}
	}
	panic("benchmark: tpch.DDL has no lineitem table")
}

// lineitemPool generates n lineitem rows from the seed.
func lineitemPool(seed int64, n int) []types.Row {
	// An order carries four lines on average; ask for twice the orders
	// needed and stop once the pool is full.
	g := tpch.NewGen(tpch.Scale{SF: float64(n) / 2 / 1500000, Seed: seed})
	pool := make([]types.Row, 0, n)
	for len(pool) < n {
		g.OrderAndLines(func(_ types.Row, lines []types.Row) {
			for _, l := range lines {
				if len(pool) < n {
					pool = append(pool, l)
				}
			}
		})
	}
	return pool
}

// insertSQL renders one lineitem row as an INSERT ... VALUES statement.
func insertSQL(table string, row types.Row) string {
	vals := make([]string, len(row))
	for i, d := range row {
		switch d.K {
		case types.KindString:
			vals[i] = "'" + strings.ReplaceAll(d.S, "'", "''") + "'"
		case types.KindDate:
			vals[i] = "date '" + d.String() + "'"
		default:
			vals[i] = d.String()
		}
	}
	return "INSERT INTO " + table + " VALUES (" + strings.Join(vals, ", ") + ")"
}

func (st *loadState) eng() *engine.Engine { return st.e }

func (st *loadState) oracle() error { return nil }

// storedBytesPerRow is the file system's growth per committed row: the
// combined space cost of the three formats, aborted bytes truncated away.
func (st *loadState) storedBytesPerRow() float64 {
	var rows int64
	for _, t := range st.tallies {
		rows += t.rows
	}
	return float64(st.e.Cluster().FS.TotalBytes()) / float64(rows)
}

// copyTxn runs BEGIN; COPY; COMMIT|ROLLBACK and updates the tally.
func (st *loadState) copyTxn(op loadOp) error {
	rows := st.pool[op.off : op.off+st.gen.batch]
	if _, err := st.s.Query("BEGIN"); err != nil {
		return err
	}
	if _, err := st.s.CopyFrom(loadTables[op.table].name, rows); err != nil {
		_, rerr := st.s.Query("ROLLBACK")
		return errors.Join(err, rerr)
	}
	if op.rollback {
		_, err := st.s.Query("ROLLBACK")
		return err
	}
	if _, err := st.s.Query("COMMIT"); err != nil {
		return err
	}
	st.credit(op.table, rows)
	return nil
}

func (st *loadState) credit(table int, rows []types.Row) {
	for _, r := range rows {
		st.tallies[table].qty += r[4].I
	}
	st.tallies[table].rows += int64(len(rows))
}

func checkSQL(table string) string {
	return "SELECT count(*), sum(l_quantity) FROM " + table
}

// wantCheck is the row checkSQL must return for table i.
func (st *loadState) wantCheck(i int) types.Row {
	return types.Row{types.NewInt64(st.tallies[i].rows), types.NewDecimal(st.tallies[i].qty, 2)}
}

// check verifies that every table holds exactly the committed batches:
// aborted batches invisible, never a partial batch.
func (st *loadState) check(rec *recorder) {
	for i, t := range loadTables {
		start := wall.Now()
		res, err := st.s.Query(checkSQL(t.name))
		took := wall.Since(start)
		if err == nil {
			want := fingerprint([]types.Row{st.wantCheck(i)})
			if got := fingerprint(res.Rows); got != want {
				err = errWrongAnswer(checkSQL(t.name), fmt.Sprint(res.Rows), st.wantCheck(i).String())
			}
		}
		rec.observe("check", took, err)
	}
}

func (st *loadState) loop(d time.Duration, minPasses int, rec *recorder) {
	start := wall.Now()
	for pass := 0; pass < minPasses || wall.Since(start) < d; pass++ {
		passStart := rec.beginPass()
		for i := 0; i < loadPassIters; i++ {
			op := st.gen.next()
			if op.inserts {
				for _, row := range st.pool[op.off : op.off+loadInserts] {
					opStart := wall.Now()
					_, err := st.s.Query(insertSQL(loadTables[0].name, row))
					rec.observe("insert", wall.Since(opStart), err)
					if err == nil {
						st.credit(0, []types.Row{row})
					}
				}
				st.check(rec)
				continue
			}
			class := "copy_" + strings.TrimPrefix(loadTables[op.table].name, "li_")
			if op.rollback {
				class = "rollback"
			}
			opStart := wall.Now()
			err := st.copyTxn(op)
			rec.observe(class, wall.Since(opStart), err)
		}
		rec.endPass(passStart)
	}
	// Rollbacks go to the void twins (see loadTables): the run does not
	// cover an abort followed by a commit on one table.
	rec.detail["load.abort_shares_table"] = measurement{Value: 0, Unit: "count"}
}

func (st *loadState) traceStmts() []traceStmt {
	var out []traceStmt
	for i, t := range loadTables {
		out = append(out, traceStmt{class: "check", sql: checkSQL(t.name), want: fingerprint([]types.Row{st.wantCheck(i)})})
	}
	return out
}

func (st *loadState) close() error {
	return errors.Join(st.e.Close(), os.RemoveAll(st.dir))
}
