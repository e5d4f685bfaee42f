package hawq_test

import (
	"context"
	"os"
	"testing"
	"time"

	"hawq/internal/bench"
	"hawq/internal/engine"
	"hawq/internal/hdfs"
	"hawq/internal/plan"
	"hawq/internal/planner"
	"hawq/internal/sqlparser"
	"hawq/internal/stinger"
	"hawq/internal/tpch"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// benchConfig is a deliberately tiny configuration so the full set of
// figure benchmarks completes in minutes. cmd/hawq-bench runs the same
// experiments at larger scales.
func benchConfig(b *testing.B) bench.Config {
	cfg := bench.Config{
		Segments: 2,
		SFSmall:  0.0005,
		SFLarge:  0.002,
		SpillDir: b.TempDir(),
		Stinger: stinger.Config{
			MapTasks:         2,
			ReduceTasks:      2,
			Workers:          4,
			ContainerStartup: 5 * time.Millisecond,
			SpillDir:         os.TempDir(),
		},
	}
	cfg.Defaults()
	return cfg
}

// runFigure executes one experiment per benchmark iteration (experiments
// exceed the default benchtime, so b.N is typically 1) and logs the
// report table.
func runFigure(b *testing.B, run func(bench.Config) (*bench.Report, error)) {
	cfg := benchConfig(b)
	b.ResetTimer()
	var report *bench.Report
	for i := 0; i < b.N; i++ {
		var err error
		report, err = run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + report.String())
}

// BenchmarkFig6_Overall_CPUBound regenerates Figure 6: overall TPC-H
// time, CPU-bound regime, Stinger vs HAWQ AO/CO/Parquet.
func BenchmarkFig6_Overall_CPUBound(b *testing.B) {
	runFigure(b, bench.Fig6)
}

// BenchmarkFig7_Overall_IOBound regenerates Figure 7: overall TPC-H
// time with the simulated-disk IO model.
func BenchmarkFig7_Overall_IOBound(b *testing.B) {
	runFigure(b, bench.Fig7)
}

// BenchmarkFig8_SimpleSelection regenerates Figure 8: per-query times of
// the simple selection group, HAWQ vs Stinger.
func BenchmarkFig8_SimpleSelection(b *testing.B) {
	runFigure(b, bench.Fig8)
}

// BenchmarkFig9_ComplexJoins regenerates Figure 9: per-query times of
// the complex join group.
func BenchmarkFig9_ComplexJoins(b *testing.B) {
	runFigure(b, bench.Fig9)
}

// BenchmarkFig10_Distribution regenerates Figure 10: hash vs random
// distribution over AO and CO storage.
func BenchmarkFig10_Distribution(b *testing.B) {
	runFigure(b, bench.Fig10)
}

// BenchmarkFig11_Compression_CPUBound regenerates Figure 11(a):
// compression sweep in the in-memory regime.
func BenchmarkFig11_Compression_CPUBound(b *testing.B) {
	runFigure(b, func(cfg bench.Config) (*bench.Report, error) {
		cfg.Queries = []int{1, 5, 6}
		return bench.Fig11(cfg, cfg.SFSmall, nil, "CPU-bound")
	})
}

// BenchmarkFig11_Compression_IOBound regenerates Figure 11(b):
// compression sweep under the disk IO model.
func BenchmarkFig11_Compression_IOBound(b *testing.B) {
	runFigure(b, func(cfg bench.Config) (*bench.Report, error) {
		cfg.Queries = []int{1, 5, 6}
		return bench.Fig11(cfg, cfg.SFLarge, bench.IOModel(), "IO-bound")
	})
}

// BenchmarkFig12_Interconnect regenerates Figure 12: TCP vs UDP
// interconnect under hash and random distribution.
func BenchmarkFig12_Interconnect(b *testing.B) {
	runFigure(b, bench.Fig12)
}

// BenchmarkFig13a_ScaleOut regenerates Figure 13(a): fixed data per
// node, growing cluster.
func BenchmarkFig13a_ScaleOut(b *testing.B) {
	runFigure(b, func(cfg bench.Config) (*bench.Report, error) {
		return bench.Fig13(cfg, true)
	})
}

// BenchmarkFig13b_SpeedUp regenerates Figure 13(b): fixed total data,
// growing cluster.
func BenchmarkFig13b_SpeedUp(b *testing.B) {
	runFigure(b, func(cfg bench.Config) (*bench.Report, error) {
		return bench.Fig13(cfg, false)
	})
}

// BenchmarkAblations measures direct dispatch, partition elimination and
// join colocation on vs off (DESIGN.md §4).
func BenchmarkAblations(b *testing.B) {
	runFigure(b, bench.AblationReport)
}

// BenchmarkHDFSWriteDelete is a micro-benchmark of the simulated HDFS
// metadata path (the interconnect and storage micro-benchmarks live in
// their packages: BenchmarkUDPInterconnectThroughput,
// BenchmarkAOWriteScan, ...).
func BenchmarkHDFSWriteDelete(b *testing.B) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		fs.WriteFile("/bench", []byte("x"), hdfs.CreateOptions{})
		fs.Delete("/bench", false)
	}
}

// BenchmarkPointLookup is the tracked benchmark's `point` statement in
// process: a prepared `SELECT c_name, c_acctbal FROM customer WHERE
// c_custkey = $1` on TPC-H SF 0.01 row tables, keys cycling over the
// 1500 customers — plan-cache hit, clone, bind, direct dispatch to one
// QE, and a scan of that segment's customer file from its block cache.
func BenchmarkPointLookup(b *testing.B) {
	e, err := engine.New(engine.Config{Segments: 4, SpillDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if _, err := tpch.Load(e, tpch.LoadOptions{Scale: tpch.Scale{SF: 0.01}, Orientation: "row", Distribution: tpch.DistHash}); err != nil {
		b.Fatal(err)
	}
	s := e.NewSession()
	if err := s.Prepare("point", "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = $1"); err != nil {
		b.Fatal(err)
	}
	lookup := func(i int) {
		res, err := s.ExecutePrepared("point", types.NewInt64(int64(i%1500+1)))
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("key %d: %v, %v", i%1500+1, res, err)
		}
	}
	b.Run("prepared", func(b *testing.B) {
		for i := 0; i < 3000; i++ { // every segment's blocks seen twice
			lookup(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lookup(i)
		}
	})
}

// floorPlans boots a 4-segment engine with one empty hash-distributed
// table and plans the two statements whose dispatch is pure fixed cost:
// a direct-dispatch key lookup (one QE) and a four-QE gather. They are
// the statements behind the tracked benchmark's
// cluster.dispatch_direct_floor_us / cluster.dispatch_floor_us probes.
func floorPlans(b *testing.B) (e *engine.Engine, direct, gather4 *plan.Plan) {
	e, err := engine.New(engine.Config{Segments: 4, SpillDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if _, err := e.NewSession().Execute("CREATE TABLE bench_empty (k BIGINT, v BIGINT) DISTRIBUTED BY (k)"); err != nil {
		b.Fatal(err)
	}
	cl := e.Cluster()
	t := cl.TxMgr.Begin(tx.ReadCommitted)
	defer t.Abort()
	mustPlan := func(sql string) *plan.Plan {
		stmt, err := sqlparser.ParseOne(sql)
		if err != nil {
			b.Fatal(err)
		}
		p := &planner.Planner{Cat: cl.Cat(), Snap: t.Snapshot(), NumSegments: cl.NumSegments()}
		pl, err := p.PlanSelect(stmt.(*sqlparser.SelectStmt))
		if err != nil {
			b.Fatal(err)
		}
		return pl
	}
	return e, mustPlan("SELECT v FROM bench_empty WHERE k = 1"), mustPlan("SELECT count(*) FROM bench_empty")
}

// BenchmarkDispatchFloor is the fixed cost every statement pays before
// its first row: gang launch, interconnect stream set-up and teardown
// on an empty table, for a one-QE direct dispatch and a four-QE gather.
func BenchmarkDispatchFloor(b *testing.B) {
	e, direct, gather4 := floorPlans(b)
	for _, c := range []struct {
		name string
		pl   *plan.Plan
	}{{"direct", direct}, {"gather4", gather4}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Cluster().Dispatch(context.Background(), c.pl, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var planShipSink any

// BenchmarkPlanShip prices the three ways a plan can reach an executor:
// the §3.1 wire form (gob + quicklz encode, decode) and the in-process
// structural clone the plan cache hands out per hit. Dispatch uses
// neither codec per statement; this keeps their cost on record.
func BenchmarkPlanShip(b *testing.B) {
	_, direct, _ := floorPlans(b)
	enc, err := plan.Encode(direct)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			planShipSink, _ = plan.Encode(direct)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			planShipSink, _ = plan.Decode(enc)
		}
	})
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			planShipSink, _ = direct.Clone()
		}
	})
}

var planSink *plan.Plan

// BenchmarkPlan prices parse + plan with no dispatch: the serve_point
// text statement (planned per statement, it never hits the plan cache;
// a single-table statement reads no statistics), the three join queries
// predicate placement replans — Q7 (an OR split per nation scan), Q13
// (an ON conjunct on its outer join's scan) and Q18 (an IN joined to
// orders before the join order is chosen) — and the four costing from
// statistics replans: Q3 and Q10 (build sides and join order), Q17 and
// Q20 (a magic set planned into the grouped derived table).
func BenchmarkPlan(b *testing.B) {
	e, err := engine.New(engine.Config{Segments: 4, SpillDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if _, err := tpch.Load(e, tpch.LoadOptions{Scale: tpch.Scale{SF: 0.001}, Orientation: "row"}); err != nil {
		b.Fatal(err)
	}
	cl := e.Cluster()
	t := cl.TxMgr.Begin(tx.ReadCommitted)
	defer t.Abort()
	for _, c := range []struct{ name, sql string }{
		{"text_point", "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 42"},
		{"q3", tpch.Queries[3]},
		{"q7", tpch.Queries[7]},
		{"q10", tpch.Queries[10]},
		{"q13", tpch.Queries[13]},
		{"q17", tpch.Queries[17]},
		{"q18", tpch.Queries[18]},
		{"q20", tpch.Queries[20]},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stmt, err := sqlparser.ParseOne(c.sql)
				if err != nil {
					b.Fatal(err)
				}
				p := &planner.Planner{Cat: cl.Cat(), Snap: t.Snapshot(), NumSegments: cl.NumSegments()}
				if planSink, err = p.PlanSelect(stmt.(*sqlparser.SelectStmt)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
