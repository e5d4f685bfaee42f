package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/cluster"
	"hawq/internal/tx"
	"hawq/internal/types"
	"hawq/internal/wal"

	"hawq/internal/tpch"
)

// This file is the crash-point matrix: the master is crashed at every
// fsync boundary (and at seeded write-byte boundaries) of a seeded
// catalog workload, recovered, and the recovered catalog compared
// byte-for-byte against the committed prefix. The invariant at every
// crash point is exact: with k operations acknowledged before the
// crash, recovery yields the catalog after exactly k ops — or k+1, the
// one legal ambiguity, when the crash destroyed the acknowledgement of
// an operation whose commit record had already reached stable storage.
// Anything else — a lost commit, a resurrected abort, an invented row,
// a panic, an unopenable log — fails the matrix.

// CrashOp is one step of the deterministic crash workload.
type CrashOp struct {
	// Desc names the op in failure reports.
	Desc string
	// Run applies the op to a master; an error means the op was not
	// acknowledged.
	Run func(m *cluster.Master) error
}

// CrashOptions configures one crash-matrix run.
type CrashOptions struct {
	// Seed drives the workload and the sampled crash points.
	Seed int64
	// Ops is the workload length (default 24).
	Ops int
	// WriteByteSamples is how many torn-write byte boundaries to sample
	// on top of the full fsync-boundary sweep (default 32).
	WriteByteSamples int
}

func (o *CrashOptions) fill() {
	if o.Ops <= 0 {
		o.Ops = 24
	}
	if o.WriteByteSamples <= 0 {
		o.WriteByteSamples = 32
	}
}

// CrashReport summarizes a completed crash-matrix run.
type CrashReport struct {
	// Seed is the workload seed.
	Seed int64
	// Ops is the workload length.
	Ops int
	// Syncs is the number of fsync boundaries the golden pass performed;
	// every one of them was crashed at least three ways.
	Syncs int
	// Points is the total number of crash points exercised.
	Points int
}

// masterOpts are the fixed durability knobs for crash runs: small
// segments force rolls, and frequent checkpoints put checkpoint
// installation itself inside the blast radius.
func masterOpts(d wal.Disk) cluster.MasterOptions {
	return cluster.MasterOptions{Disk: d, SegmentBytes: 2048, CheckpointEvery: 12}
}

// tpchSchemaNames returns the TPC-H schema names in deterministic order.
func tpchSchemaNames() []string {
	names := make([]string, 0, 8)
	for name := range tpch.Schemas() {
		names = append(names, name)
	}
	// map order is random; sort for determinism.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// crashWorkload builds the seeded op list. The list is precomputed — a
// pure function of the seed — so every crash pass executes the same
// prefix of the same ops, which is what makes golden-pass dumps
// comparable across passes. Ops reference tables by name and look OIDs
// up at run time, so they replay identically on any master.
func crashWorkload(seed int64, n int) []CrashOp {
	rng := rand.New(rand.NewSource(seed))
	schemas := tpch.Schemas()
	names := tpchSchemaNames()
	var ops []CrashOp
	var live []string  // tables created and not yet dropped, in plan order
	var tasks []string // maintenance tasks created, in plan order
	nextID := 0

	lookup := func(m *cluster.Master, t *tx.Tx, name string) (*catalog.TableDesc, error) {
		return m.Cat.LookupTable(t.Snapshot(), name)
	}
	inTx := func(f func(m *cluster.Master, t *tx.Tx) error) func(*cluster.Master) error {
		return func(m *cluster.Master) error {
			t := m.TxMgr.Begin(tx.ReadCommitted)
			if err := f(m, t); err != nil {
				t.Abort()
				return err
			}
			return t.Commit()
		}
	}
	addCreate := func() {
		base := names[rng.Intn(len(names))]
		name := fmt.Sprintf("%s_%d", base, nextID)
		nextID++
		schema := schemas[base]
		live = append(live, name)
		ops = append(ops, CrashOp{
			Desc: "create " + name,
			Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
				_, err := m.Cat.CreateTable(t, &catalog.TableDesc{
					Name: name, Schema: schema,
					Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
				})
				return err
			}),
		})
	}
	addCreate() // the workload always starts with a table to mutate

	for len(ops) < n {
		switch k := rng.Intn(13); {
		case k < 3:
			addCreate()
		case k < 4 && len(live) > 1:
			victim := live[rng.Intn(len(live))]
			rest := make([]string, 0, len(live)-1)
			for _, t := range live {
				if t != victim {
					rest = append(rest, t)
				}
			}
			live = rest
			ops = append(ops, CrashOp{
				Desc: "drop " + victim,
				Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
					return m.Cat.DropTable(t, victim)
				}),
			})
		case k < 6:
			target := live[rng.Intn(len(live))]
			segno := rng.Intn(8) + 1
			ops = append(ops, CrashOp{
				Desc: fmt.Sprintf("addsegfile %s seg %d", target, segno),
				Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
					desc, err := lookup(m, t, target)
					if err != nil {
						return err
					}
					// A lane already registered is refused; take the next
					// free segno instead.
					for n := segno; ; n++ {
						err := m.Cat.AddSegFile(t, catalog.SegFile{
							TableOID: desc.OID, SegmentID: 0, SegNo: n,
							Path: fmt.Sprintf("/%s/%d", target, n),
						})
						if !errors.Is(err, catalog.ErrSegFileExists) {
							return err
						}
					}
				}),
			})
		case k < 7:
			target := live[rng.Intn(len(live))]
			rows := rng.Int63n(1 << 20)
			ops = append(ops, CrashOp{
				Desc: "setrelstats " + target,
				Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
					desc, err := lookup(m, t, target)
					if err != nil {
						return err
					}
					return m.Cat.SetRelStats(t, desc.OID, catalog.RelStats{Rows: rows})
				}),
			})
		case k < 8:
			qname := fmt.Sprintf("queue_%d", nextID)
			nextID++
			limit := rng.Intn(20) + 1
			ops = append(ops, CrashOp{
				Desc: "create queue " + qname,
				Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
					return m.Cat.CreateResourceQueue(t, catalog.ResQueueDesc{
						Name: qname, ActiveStatements: int64(limit),
					})
				}),
			})
		case k < 9:
			// Multi-record transaction: create + segfile + stats commit or
			// crash as one unit.
			base := names[rng.Intn(len(names))]
			name := fmt.Sprintf("%s_multi_%d", base, nextID)
			nextID++
			schema := schemas[base]
			live = append(live, name)
			ops = append(ops, CrashOp{
				Desc: "multi " + name,
				Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
					oid, err := m.Cat.CreateTable(t, &catalog.TableDesc{
						Name: name, Schema: schema,
						Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
					})
					if err != nil {
						return err
					}
					if err := m.Cat.AddSegFile(t, catalog.SegFile{TableOID: oid, SegmentID: 0, SegNo: 1, Path: "/" + name + "/1"}); err != nil {
						return err
					}
					return m.Cat.SetRelStats(t, oid, catalog.RelStats{Rows: 1})
				}),
			})
		case k < 10:
			// Explicit abort: writes records, then walks them back. Must
			// never resurrect, before or after any crash.
			base := names[rng.Intn(len(names))]
			name := fmt.Sprintf("%s_aborted_%d", base, nextID)
			nextID++
			schema := schemas[base]
			ops = append(ops, CrashOp{
				Desc: "abort " + name,
				Run: func(m *cluster.Master) error {
					t := m.TxMgr.Begin(tx.ReadCommitted)
					if _, err := m.Cat.CreateTable(t, &catalog.TableDesc{
						Name: name, Schema: schema,
						Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
					}); err != nil {
						t.Abort()
						return err
					}
					t.Abort()
					return nil
				},
			})
		case k < 11:
			// Maintenance-task lifecycle: create a hawq_task row, or walk
			// an existing one through the scheduler's claim transition.
			// Task state must recover exactly like any other catalog row.
			if len(tasks) == 0 || rng.Intn(2) == 0 {
				tname := fmt.Sprintf("task_%d", nextID)
				nextID++
				interval := time.Duration(rng.Intn(60)+1) * time.Second
				tasks = append(tasks, tname)
				ops = append(ops, CrashOp{
					Desc: "create task " + tname,
					Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
						return m.Cat.CreateTask(t, catalog.TaskDesc{
							Name: tname, Kind: catalog.TaskKindStatement,
							Target: "ANALYZE", Interval: interval,
							NextRun: int64(interval),
						})
					}),
				})
			} else {
				tname := tasks[rng.Intn(len(tasks))]
				lease := rng.Int63n(1 << 30)
				ops = append(ops, CrashOp{
					Desc: "claim task " + tname,
					Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
						d, err := m.Cat.LookupTask(t.Snapshot(), tname)
						if err != nil {
							return err
						}
						d.State = catalog.TaskClaimed
						d.Owner = "crash-owner"
						d.LeaseExpiry = lease
						return m.Cat.UpdateTask(t, *d)
					}),
				})
			}
		case k < 12:
			// The row-count writes of DML: the segfile update an INSERT or
			// COPY commits (a new lane's file when the table has none on
			// segment 0). Now and then the commit follows an append to the
			// same table that aborted, whose stamp on the lane's version
			// the committing writer must replace (§5.3); now and then a
			// TRUNCATE drops the files and the stored row count together.
			target := live[rng.Intn(len(live))]
			delta := rng.Int63n(500) + 1
			mode := rng.Intn(4)
			appendRows := func(m *cluster.Master, t *tx.Tx) error {
				d, err := lookup(m, t, target)
				if err != nil {
					return err
				}
				if sfs := m.Cat.SegFiles(t.Snapshot(), d.OID, 0); len(sfs) > 0 {
					sf := sfs[0]
					sf.Tuples += delta
					sf.LogicalLen += delta * 64
					return m.Cat.UpdateSegFile(t, sf)
				}
				next := m.Cat.MaxSegNo(t.Snapshot(), d.OID, 0) + 1
				return m.Cat.AddSegFile(t, catalog.SegFile{
					TableOID: d.OID, SegmentID: 0, SegNo: next,
					Path:       fmt.Sprintf("/%s/%d", target, next),
					LogicalLen: delta * 64, Tuples: delta,
				})
			}
			op := CrashOp{Desc: "appendrows " + target, Run: inTx(appendRows)}
			switch mode {
			case 0:
				op = CrashOp{
					Desc: "truncate " + target,
					Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
						d, err := lookup(m, t, target)
						if err != nil {
							return err
						}
						return m.Cat.DropSegFiles(t, d.OID)
					}),
				}
			case 1:
				op.Desc = "append, abort, append, commit " + target
				op.Run = func(m *cluster.Master) error {
					t := m.TxMgr.Begin(tx.ReadCommitted)
					err := appendRows(m, t)
					t.Abort()
					if err != nil {
						return err
					}
					return inTx(appendRows)(m)
				}
			case 2:
				// A reader's snapshot spans the append and a VACUUM: the
				// appender began first, so the reader counts it as running
				// even after it commits, and the vacuum must keep every
				// version the reader sees.
				op.Desc = "append under a reader, vacuum " + target
				op.Run = func(m *cluster.Master) error {
					w := m.TxMgr.Begin(tx.ReadCommitted)
					r := m.TxMgr.Begin(tx.ReadCommitted)
					defer r.Abort()
					snap := r.Snapshot()
					before := m.Cat.Dump(snap)
					if err := appendRows(m, w); err != nil {
						w.Abort()
						return err
					}
					if err := w.Commit(); err != nil {
						return err
					}
					m.Cat.VacuumAll(m.TxMgr.Horizon())
					if after := m.Cat.Dump(snap); after != before {
						return fmt.Errorf("vacuum changed what an open snapshot reads:\nbefore:\n%s\nafter:\n%s", before, after)
					}
					return nil
				}
			}
			ops = append(ops, op)
		default:
			// Compaction catalog swap: ensure at least two segment files
			// exist, then replace them with one merged file — all in one
			// transaction, so a crash landing inside it must recover to
			// the old segfile set or the new one, never a mix.
			target := live[rng.Intn(len(live))]
			ops = append(ops, CrashOp{
				Desc: "compactswap " + target,
				Run: inTx(func(m *cluster.Master, t *tx.Tx) error {
					desc, err := lookup(m, t, target)
					if err != nil {
						return err
					}
					sfs := m.Cat.SegFiles(t.Snapshot(), desc.OID, 0)
					next := m.Cat.MaxSegNo(t.Snapshot(), desc.OID, 0) + 1
					for len(sfs) < 2 {
						sf := catalog.SegFile{
							TableOID: desc.OID, SegmentID: 0, SegNo: next,
							Path:       fmt.Sprintf("/%s/%d", target, next),
							LogicalLen: 64, Tuples: 1,
						}
						if err := m.Cat.AddSegFile(t, sf); err != nil {
							return err
						}
						sfs = append(sfs, sf)
						next++
					}
					var segnos []int
					var tuples, bytes int64
					for _, sf := range sfs {
						segnos = append(segnos, sf.SegNo)
						tuples += sf.Tuples
						bytes += sf.LogicalLen
					}
					return m.Cat.SwapSegFiles(t, desc.OID, 0, segnos, catalog.SegFile{
						TableOID: desc.OID, SegmentID: 0, SegNo: next,
						Path:       fmt.Sprintf("/%s/merged_%d", target, next),
						LogicalLen: bytes, Tuples: tuples,
					})
				}),
			})
		}
	}
	return ops[:n]
}

// committedDump renders a master's committed catalog through a fresh
// read snapshot: the crash matrix's equality witness.
func committedDump(m *cluster.Master) string {
	t := m.TxMgr.Begin(tx.ReadCommitted)
	dump := m.Cat.Dump(t.Snapshot())
	//hawqcheck:ignore errdrop — read-only witness txn; commit cannot affect the dump already taken
	t.Commit()
	return dump
}

// crashPoint is one cell of the matrix.
type crashPoint struct {
	desc string
	plan wal.CrashPlan
}

// RunCrash executes the crash-point matrix for one seed: a golden pass
// records the catalog after every acknowledged op plus the total fsync
// count, then every sync boundary is crashed three ways (nothing
// durable, a seeded partial fsync, fsync-then-crash), plus seeded torn
// writes at byte boundaries and page-cache-survives variants. Each
// crash recovers on the surviving disk image and must yield exactly
// the committed prefix.
func RunCrash(opts CrashOptions) (*CrashReport, error) {
	opts.fill()
	ops := crashWorkload(opts.Seed, opts.Ops)

	// Golden pass: no crash plan, record the dump after every op.
	gold := wal.NewFaultDisk()
	gm, err := cluster.OpenMaster(masterOpts(gold))
	if err != nil {
		return nil, fmt.Errorf("crash: golden open: %w", err)
	}
	dumps := []string{committedDump(gm)}
	for i, op := range ops {
		if err := op.Run(gm); err != nil {
			return nil, fmt.Errorf("crash: golden op %d (%s): %w", i, op.Desc, err)
		}
		dumps = append(dumps, committedDump(gm))
	}
	_, syncs, bytes := gold.Counts()
	if syncs == 0 {
		return nil, fmt.Errorf("crash: workload performed no fsyncs")
	}

	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5ca1ab1e))
	var points []crashPoint
	for s := 1; s <= syncs; s++ {
		points = append(points,
			crashPoint{fmt.Sprintf("sync %d frac 0", s), wal.CrashPlan{SyncIndex: s}},
			crashPoint{fmt.Sprintf("sync %d partial", s), wal.CrashPlan{SyncIndex: s, Frac: 0.1 + 0.8*rng.Float64()}},
			crashPoint{fmt.Sprintf("sync %d after ack", s), wal.CrashPlan{SyncIndex: s, Frac: 1}},
		)
		if s%3 == 0 {
			points = append(points, crashPoint{
				fmt.Sprintf("sync %d frac 0, page cache survives", s),
				wal.CrashPlan{SyncIndex: s, SurviveUnsynced: true},
			})
		}
	}
	for i := 0; i < opts.WriteByteSamples; i++ {
		b := 1 + rng.Int63n(bytes)
		points = append(points,
			crashPoint{fmt.Sprintf("torn write at byte %d", b), wal.CrashPlan{WriteByte: b}},
			crashPoint{fmt.Sprintf("torn write at byte %d, page cache survives", b), wal.CrashPlan{WriteByte: b, SurviveUnsynced: true}},
		)
	}

	for _, pt := range points {
		if err := runCrashPoint(ops, dumps, pt); err != nil {
			return nil, fmt.Errorf("crash: seed %d, %s: %w", opts.Seed, pt.desc, err)
		}
	}
	return &CrashReport{Seed: opts.Seed, Ops: opts.Ops, Syncs: syncs, Points: len(points)}, nil
}

// runCrashPoint replays the workload against a freshly armed disk,
// lets the crash land, recovers on the surviving image, and checks the
// exact-committed-prefix invariant plus post-recovery liveness.
func runCrashPoint(ops []CrashOp, dumps []string, pt crashPoint) error {
	d := wal.NewFaultDisk()
	m, err := cluster.OpenMaster(masterOpts(d))
	if err != nil {
		return fmt.Errorf("pre-crash open: %w", err)
	}
	d.SetCrash(pt.plan)
	acked := 0
	for i, op := range ops {
		if err := op.Run(m); err != nil {
			if !d.Crashed() {
				return fmt.Errorf("op %d (%s) failed without a crash: %w", i, op.Desc, err)
			}
			break
		}
		acked++
	}

	// Reboot and recover. Recovery must always succeed: a torn tail is
	// truncated, never fatal.
	sd := d.Survive()
	m2, err := cluster.OpenMaster(masterOpts(sd))
	if err != nil {
		return fmt.Errorf("recovery after %d acked ops: %w", acked, err)
	}
	got := committedDump(m2)
	// Exactly the committed prefix — with one legal ambiguity: the
	// crash may have eaten the acknowledgement of op acked+1 after its
	// commit record reached stable storage.
	if got != dumps[acked] && !(acked+1 < len(dumps) && got == dumps[acked+1]) {
		return fmt.Errorf("recovered catalog after %d acked ops matches neither prefix %d nor %d:\ngot:\n%s\nwant:\n%s",
			acked, acked, acked+1, got, dumps[acked])
	}

	// Liveness: the recovered master accepts new commits, and a second
	// recovery sees them.
	t := m2.TxMgr.Begin(tx.ReadCommitted)
	if _, err := m2.Cat.CreateTable(t, &catalog.TableDesc{
		Name: "post_crash_probe", Schema: types.NewSchema(types.Column{Name: "k", Kind: types.KindInt64}),
		Storage: catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"},
	}); err != nil {
		t.Abort()
		return fmt.Errorf("post-recovery create: %w", err)
	}
	if err := t.Commit(); err != nil {
		return fmt.Errorf("post-recovery commit: %w", err)
	}
	m3, err := cluster.OpenMaster(masterOpts(sd.Survive()))
	if err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	t3 := m3.TxMgr.Begin(tx.ReadCommitted)
	_, err = m3.Cat.LookupTable(t3.Snapshot(), "post_crash_probe")
	//hawqcheck:ignore errdrop — read-only witness txn
	t3.Commit()
	if err != nil {
		return fmt.Errorf("post-recovery commit lost across reboot: %w", err)
	}
	return nil
}
