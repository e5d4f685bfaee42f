package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"hawq/internal/engine"
	"hawq/internal/hdfs"
	"hawq/internal/tpch"
)

// Fig6 reproduces Figure 6: overall TPC-H execution time in the
// CPU-bound regime (paper: 160GB, fully in memory) for Stinger and
// HAWQ's three storage formats.
func Fig6(cfg Config) (*Report, error) {
	cfg.Defaults()
	r := &Report{
		Title:   "Figure 6: overall TPC-H time, CPU-bound regime",
		Columns: []string{"system", "seconds", "speedup vs Stinger"},
		Notes: []string{
			fmt.Sprintf("SF=%.4g, %d segments; paper: Stinger 7935s, AO 239s, CO 211s, Parquet 172s (~45x)", cfg.SFSmall, cfg.Segments),
		},
	}
	se, err := newStinger(cfg, cfg.SFSmall, nil)
	if err != nil {
		return nil, err
	}
	stingerTime, err := runSuiteStinger(se, cfg.queries())
	se.Close()
	if err != nil {
		return nil, fmt.Errorf("stinger: %w", err)
	}
	r.Rows = append(r.Rows, []string{"Stinger", seconds(stingerTime), "1.0x"})
	for _, format := range []string{"row", "column", "parquet"} {
		e, err := newHAWQ(cfg, cfg.SFSmall, format, "quicklz", 0, tpch.DistHash, nil)
		if err != nil {
			return nil, err
		}
		d, err := runSuite(e, cfg.queries())
		if cerr := e.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("hawq %s: %w", format, err)
		}
		r.Rows = append(r.Rows, []string{
			"HAWQ " + format, seconds(d),
			fmt.Sprintf("%.1fx", stingerTime.Seconds()/d.Seconds()),
		})
	}
	return r, nil
}

// IOModel is the simulated-disk regime for Figure 7 and 11(b) (the
// paper's 1.6TB runs were IO-bound; we attach a disk cost model to every
// block read).
func IOModel() *hdfs.IOModel {
	return &hdfs.IOModel{SeekLatency: 200 * time.Microsecond, BytesPerSec: 64 << 20}
}

// Fig7 reproduces Figure 7: overall TPC-H time in the IO-bound regime.
func Fig7(cfg Config) (*Report, error) {
	cfg.Defaults()
	r := &Report{
		Title:   "Figure 7: overall TPC-H time, IO-bound regime",
		Columns: []string{"system", "seconds", "speedup vs Stinger"},
		Notes: []string{
			fmt.Sprintf("SF=%.4g with simulated disk; paper: Stinger 95502s, AO 5115s, CO 2490s, Parquet 2950s (~40x)", cfg.SFLarge),
		},
	}
	io := IOModel()
	se, err := newStinger(cfg, cfg.SFLarge, io)
	if err != nil {
		return nil, err
	}
	stingerTime, err := runSuiteStinger(se, cfg.queries())
	se.Close()
	if err != nil {
		return nil, fmt.Errorf("stinger: %w", err)
	}
	r.Rows = append(r.Rows, []string{"Stinger", seconds(stingerTime), "1.0x"})
	for _, format := range []string{"row", "column", "parquet"} {
		e, err := newHAWQ(cfg, cfg.SFLarge, format, "quicklz", 0, tpch.DistHash, io)
		if err != nil {
			return nil, err
		}
		d, err := runSuite(e, cfg.queries())
		if cerr := e.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("hawq %s: %w", format, err)
		}
		r.Rows = append(r.Rows, []string{
			"HAWQ " + format, seconds(d),
			fmt.Sprintf("%.1fx", stingerTime.Seconds()/d.Seconds()),
		})
	}
	return r, nil
}

// perQuery measures HAWQ, on each of its three storage formats, against
// Stinger per query (Figures 8 and 9). Every format is timed cold — the
// segments' block caches dropped before each run, so the scan reads,
// checksums, decompresses and decodes its blocks — and warm, once the
// blocks it needs are cached. The speedup column is the paper's
// comparison, which reads storage: HAWQ's default format (AO), cold,
// over Stinger.
func perQuery(cfg Config, title string, queries []int, paperNote string) (*Report, error) {
	cfg.Defaults()
	formats := []string{"row", "column", "parquet"}
	r := &Report{
		Title:   title,
		Columns: []string{"query", "AO cold s", "AO warm s", "CO cold s", "CO warm s", "Parquet cold s", "Parquet warm s", "Stinger s", "speedup"},
		Notes:   []string{paperNote},
	}
	engines := make([]*engine.Engine, len(formats))
	for i, format := range formats {
		e, err := newHAWQ(cfg, cfg.SFLarge, format, "quicklz", 0, tpch.DistHash, nil)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		engines[i] = e
	}
	se, err := newStinger(cfg, cfg.SFLarge, nil)
	if err != nil {
		return nil, err
	}
	defer se.Close()
	for _, q := range queries {
		row := []string{fmt.Sprintf("Q%d", q)}
		var aoTime time.Duration
		for i, e := range engines {
			s := e.NewSession()
			run := func() error {
				_, err := s.Query(tpch.Queries[q])
				return err
			}
			cold := time.Duration(1<<62 - 1)
			for n := 0; n < 3; n++ {
				e.Cluster().DropCaches()
				d, err := bestOf(1, run)
				if err != nil {
					return nil, fmt.Errorf("hawq %s Q%d: %w", formats[i], q, err)
				}
				cold = min(cold, d)
			}
			// The last cold run was the blocks' first touch; one more
			// admits them, and the timed runs hit.
			if err := run(); err != nil {
				return nil, fmt.Errorf("hawq %s Q%d: %w", formats[i], q, err)
			}
			warm, err := bestOf(3, run)
			if err != nil {
				return nil, fmt.Errorf("hawq %s Q%d: %w", formats[i], q, err)
			}
			if i == 0 {
				aoTime = cold
			}
			row = append(row, seconds(cold), seconds(warm))
		}
		stTime, err := bestOf(3, func() error {
			_, _, err := se.Query(tpch.Queries[q])
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("stinger Q%d: %w", q, err)
		}
		r.Rows = append(r.Rows, append(row, seconds(stTime),
			fmt.Sprintf("%.1fx", stTime.Seconds()/aoTime.Seconds())))
	}
	return r, nil
}

// bestOf runs fn n times and returns the fastest run (the standard
// best-of-N methodology for sub-second measurements).
func bestOf(n int, fn func() error) (time.Duration, error) {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < n; i++ {
		//hawqcheck:ignore clockwall — benchmarks measure real wall time by design
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		//hawqcheck:ignore clockwall — benchmarks measure real wall time by design
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// Fig8 reproduces Figure 8: the simple selection queries.
func Fig8(cfg Config) (*Report, error) {
	return perQuery(cfg, "Figure 8: simple selection queries, HAWQ vs Stinger",
		tpch.SimpleSelectionQueries,
		"paper: HAWQ ~10x faster on simple selections (start-up + pipelining)")
}

// Fig9 reproduces Figure 9: the complex join queries.
func Fig9(cfg Config) (*Report, error) {
	return perQuery(cfg, "Figure 9: complex join queries, HAWQ vs Stinger",
		tpch.ComplexJoinQueries,
		"paper: HAWQ ~40x faster on complex joins (cost-based planning + interconnect)")
}

// Fig10 reproduces Figure 10: hash vs random distribution for Q5, Q8,
// Q9, Q18 over AO and CO storage.
func Fig10(cfg Config) (*Report, error) {
	cfg.Defaults()
	r := &Report{
		Title:   "Figure 10: hash vs random distribution",
		Columns: []string{"format", "query", "hash s", "random s", "hash speedup"},
		Notes:   []string{"paper: join-key distribution brings ~2x by avoiding redistribution"},
	}
	queries := []int{5, 8, 9, 18}
	for _, format := range []string{"row", "column"} {
		eh, err := newHAWQ(cfg, cfg.SFLarge, format, "quicklz", 0, tpch.DistHash, nil)
		if err != nil {
			return nil, err
		}
		er, err := newHAWQ(cfg, cfg.SFLarge, format, "quicklz", 0, tpch.DistRandom, nil)
		if err != nil {
			return nil, errors.Join(err, eh.Close())
		}
		sh, sr := eh.NewSession(), er.NewSession()
		for _, q := range queries {
			ht, err := bestOf(3, func() error {
				_, err := sh.Query(tpch.Queries[q])
				return err
			})
			if err != nil {
				return nil, err
			}
			rt, err := bestOf(3, func() error {
				_, err := sr.Query(tpch.Queries[q])
				return err
			})
			if err != nil {
				return nil, err
			}
			r.Rows = append(r.Rows, []string{
				format, fmt.Sprintf("Q%d", q), seconds(ht), seconds(rt),
				fmt.Sprintf("%.2fx", rt.Seconds()/ht.Seconds()),
			})
		}
		if err := errors.Join(eh.Close(), er.Close()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Fig11 reproduces Figure 11: compression's effect on lineitem size and
// suite time, per storage format and codec.
func Fig11(cfg Config, sf float64, io *hdfs.IOModel, regime string) (*Report, error) {
	cfg.Defaults()
	r := &Report{
		Title:   "Figure 11 (" + regime + "): compression vs size and time",
		Columns: []string{"format", "codec", "lineitem bytes", "suite seconds"},
		Notes: []string{
			"paper: quicklz ~3x ratio; zlib slightly better, barely improving with level;",
			"CPU-bound: compression slows queries; IO-bound: compression speeds them up",
		},
	}
	type combo struct {
		format, ctype string
		level         int
	}
	combos := map[string][]combo{
		"row": {
			{"row", "none", 0}, {"row", "quicklz", 0},
			{"row", "zlib", 1}, {"row", "zlib", 5}, {"row", "zlib", 9},
		},
		"column": {
			{"column", "none", 0}, {"column", "quicklz", 0},
			{"column", "zlib", 1}, {"column", "zlib", 5}, {"column", "zlib", 9},
		},
		"parquet": {
			{"parquet", "none", 0}, {"parquet", "snappy", 0},
			{"parquet", "gzip", 1}, {"parquet", "gzip", 5}, {"parquet", "gzip", 9},
		},
	}
	for _, format := range []string{"row", "column", "parquet"} {
		for _, c := range combos[format] {
			e, err := newHAWQ(cfg, sf, c.format, c.ctype, c.level, tpch.DistHash, io)
			if err != nil {
				return nil, err
			}
			size, err := lineitemBytes(e)
			if err != nil {
				return nil, errors.Join(err, e.Close())
			}
			d, err := runSuite(e, cfg.queries())
			if cerr := e.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s-%d: %w", c.format, c.ctype, c.level, err)
			}
			codec := c.ctype
			if c.level > 0 {
				codec = fmt.Sprintf("%s-%d", c.ctype, c.level)
			}
			r.Rows = append(r.Rows, []string{c.format, codec, fmt.Sprintf("%d", size), seconds(d)})
		}
	}
	return r, nil
}

// lineitemBytes sums the committed bytes of the lineitem table.
func lineitemBytes(e *engine.Engine) (int64, error) {
	cl := e.Cluster()
	t := cl.TxMgr.Begin(0)
	defer t.Commit()
	desc, err := cl.Cat().LookupTable(t.Snapshot(), "lineitem")
	if err != nil {
		return 0, err
	}
	// LogicalLen is the committed byte count for every format (for CO it
	// is the sum over column files).
	var total int64
	for _, sf := range cl.Cat().AllSegFiles(t.Snapshot(), desc.OID) {
		total += sf.LogicalLen
	}
	return total, nil
}

// Fig12 reproduces Figure 12: TCP vs UDP interconnect under hash and
// random distribution.
func Fig12(cfg Config) (*Report, error) {
	cfg.Defaults()
	r := &Report{
		Title:   "Figure 12: TCP vs UDP interconnect",
		Columns: []string{"distribution", "interconnect", "seconds"},
		Notes:   []string{"paper: UDP ~54% faster than TCP under random distribution; similar under hash"},
	}
	for _, dist := range []string{tpch.DistHash, tpch.DistRandom} {
		for _, ic := range []string{"udp", "tcp"} {
			e, err := engine.New(engine.Config{
				Segments:     cfg.Segments,
				SpillDir:     cfg.SpillDir,
				Interconnect: ic,
				HDFS:         hdfs.Config{DataNodes: cfg.Segments},
			})
			if err != nil {
				return nil, err
			}
			if _, err := tpch.Load(e, tpch.LoadOptions{
				Scale: tpch.Scale{SF: cfg.SFSmall}, Orientation: "row", Distribution: dist,
			}); err != nil {
				return nil, errors.Join(err, e.Close())
			}
			d, err := runSuite(e, cfg.queries())
			if cerr := e.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", dist, ic, err)
			}
			r.Rows = append(r.Rows, []string{dist, ic, seconds(d)})
		}
	}
	return r, nil
}

// Fig13 reproduces Figure 13: scalability. fixedPerNode runs SF
// proportional to the cluster (13a); otherwise the total SF is fixed
// (13b).
func Fig13(cfg Config, fixedPerNode bool) (*Report, error) {
	cfg.Defaults()
	title := "Figure 13(b): fixed total data, growing cluster"
	note := "paper: time drops to ~28% from 4 to 16 nodes"
	if fixedPerNode {
		title = "Figure 13(a): fixed data per node, growing cluster"
		note = "paper: time grows only ~13% while data quadruples (near-linear scale-out)"
	}
	r := &Report{
		Title:   title,
		Columns: []string{"segments", "SF", "seconds"},
		Notes: []string{
			note,
			fmt.Sprintf("this machine has %d CPUs: segments beyond that add no physical parallelism, so the curve flattens there (the paper's cluster adds real hardware per node)", runtime.NumCPU()),
		},
	}
	sizes := []int{1, 2, 4, 8}
	for _, n := range sizes {
		sf := cfg.SFSmall
		if fixedPerNode {
			sf = cfg.SFSmall * float64(n) / float64(sizes[0])
		}
		sub := cfg
		sub.Segments = n
		e, err := newHAWQ(sub, sf, "row", "quicklz", 0, tpch.DistHash, nil)
		if err != nil {
			return nil, err
		}
		d, err := runSuite(e, cfg.queries())
		if cerr := e.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%d segments: %w", n, err)
		}
		r.Rows = append(r.Rows, []string{fmt.Sprintf("%d", n), fmt.Sprintf("%.4g", sf), seconds(d)})
	}
	return r, nil
}

// AblationReport measures the paper's design choices on and off: direct
// dispatch (§3), partition elimination (§2.3), and join colocation
// (§2.3).
func AblationReport(cfg Config) (*Report, error) {
	cfg.Defaults()
	r := &Report{
		Title:   "Ablations: planner features on vs off",
		Columns: []string{"feature", "workload", "on s", "off s", "speedup"},
	}
	e, err := newHAWQ(cfg, cfg.SFLarge, "row", "quicklz", 0, tpch.DistHash, nil)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	s := e.NewSession()
	// Partitioned copy of orders for the elimination ablation.
	if _, err := s.Query(`CREATE TABLE orders_part (
		o_orderkey INT8, o_custkey INT8, o_totalprice DECIMAL(15,2), o_orderdate DATE
	) DISTRIBUTED BY (o_orderkey)
	PARTITION BY RANGE (o_orderdate)
	(START (DATE '1992-01-01') INCLUSIVE END (DATE '1999-01-01') EXCLUSIVE EVERY (INTERVAL '1 year'))`); err != nil {
		return nil, err
	}
	if _, err := s.Query(`INSERT INTO orders_part SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders`); err != nil {
		return nil, err
	}

	measure := func(q string, n int) (time.Duration, error) {
		//hawqcheck:ignore clockwall — benchmarks measure real wall time by design
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := s.Query(q); err != nil {
				return 0, err
			}
		}
		//hawqcheck:ignore clockwall — benchmarks measure real wall time by design
		return time.Since(start), nil
	}
	run := func(name, workload, q string, n int, off engine.PlannerFlags) error {
		e.SetFlags(engine.PlannerFlags{})
		on, err := measure(q, n)
		if err != nil {
			return err
		}
		e.SetFlags(off)
		offT, err := measure(q, n)
		e.SetFlags(engine.PlannerFlags{})
		if err != nil {
			return err
		}
		r.Rows = append(r.Rows, []string{name, workload, seconds(on), seconds(offT),
			fmt.Sprintf("%.2fx", offT.Seconds()/on.Seconds())})
		return nil
	}
	if err := run("direct dispatch", "point lookup x50",
		"SELECT o_totalprice FROM orders WHERE o_orderkey = 33", 50,
		engine.PlannerFlags{DisableDirectDispatch: true}); err != nil {
		return nil, err
	}
	if err := run("partition elimination", "one-month scan x10",
		"SELECT count(*) FROM orders_part WHERE o_orderdate >= DATE '1995-01-01' AND o_orderdate < DATE '1995-02-01'", 10,
		engine.PlannerFlags{DisablePartitionElim: true}); err != nil {
		return nil, err
	}
	if err := run("join colocation", "TPC-H Q12 x3",
		tpch.Queries[12], 3,
		engine.PlannerFlags{DisableColocation: true}); err != nil {
		return nil, err
	}
	return r, nil
}
