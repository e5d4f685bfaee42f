package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"hawq/internal/engine"
	"hawq/internal/types"
)

// The concurrent-serving benchmark: a closed-loop multi-session driver
// measuring throughput and latency percentiles as session count grows
// (the throughput-vs-concurrency curve of Tapdiya & Fabbri's SQL-engine
// evaluations). Each session admits through a resource queue and runs a
// parameterized mix of short TPC-H-derived queries; modes compare the
// prepared-statement fast path with simple-query text round trips.

// mixQuery is one statement of the serving mix: SQL with $1 plus a
// generator for the i-th argument value.
type mixQuery struct {
	name string
	sql  string
	arg  func(i int) types.Datum
}

// servingMix returns the parameterized query mix. maxKey bounds the
// point-lookup key space (scale-dependent).
func servingMix(maxKey int) []mixQuery {
	key := func(i int) types.Datum { return types.NewInt64(int64(i%maxKey) + 1) }
	return []mixQuery{
		{"point-customer", "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = $1", key},
		{"orders-by-cust", "SELECT count(*) FROM orders WHERE o_custkey = $1", key},
		{"scan-agg", "SELECT sum(l_extendedprice * l_discount) FROM lineitem WHERE l_quantity < $1",
			func(i int) types.Datum { return types.NewInt64(int64(i%40) + 5) }},
	}
}

// ConcurrencyConfig tunes the serving benchmark.
type ConcurrencyConfig struct {
	Bench Config
	// Levels are the session counts to sweep (default 1, 8, 64, 256,
	// 1024).
	Levels []int
	// OpsPerLevel is the total statement budget per (level, mode) cell,
	// split across the level's sessions (default 512; at least one op
	// per session).
	OpsPerLevel int
	// QueueActive is the resource queue's ACTIVE_STATEMENTS (default
	// 64: admission is exercised without serializing the high levels).
	QueueActive int
	// Modes restricts the comparison (default both).
	Modes []string
}

// ConcurrencyPoint is one measured cell of the sweep.
type ConcurrencyPoint struct {
	Sessions     int     `json:"sessions"`
	Mode         string  `json:"mode"`
	Ops          int     `json:"ops"`
	Errors       int     `json:"errors"`
	QPS          float64 `json:"qps"`
	P50ms        float64 `json:"p50_ms"`
	P95ms        float64 `json:"p95_ms"`
	P99ms        float64 `json:"p99_ms"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// ConcurrencyResult is the full sweep, JSON-serializable as
// BENCH_concurrency.json.
type ConcurrencyResult struct {
	Segments    int                `json:"segments"`
	ScaleFactor float64            `json:"scale_factor"`
	Mix         []string           `json:"mix"`
	Points      []ConcurrencyPoint `json:"points"`
}

// Modes.
const (
	ModePrepared = "prepared" // Parse once per session, EXECUTE many
	ModeSimple   = "simple"   // full SQL text per statement
)

func (c *ConcurrencyConfig) defaults() {
	c.Bench.Defaults()
	if len(c.Levels) == 0 {
		c.Levels = []int{1, 8, 64, 256, 1024}
	}
	if c.OpsPerLevel <= 0 {
		c.OpsPerLevel = 512
	}
	if c.QueueActive <= 0 {
		c.QueueActive = 64
	}
	if len(c.Modes) == 0 {
		c.Modes = []string{ModePrepared, ModeSimple}
	}
}

// RunConcurrency executes the sweep on one engine and returns the
// measured points.
func RunConcurrency(cfg ConcurrencyConfig) (*ConcurrencyResult, error) {
	cfg.defaults()
	e, err := newHAWQ(cfg.Bench, cfg.Bench.SFSmall, "row", "", 0, "", nil)
	if err != nil {
		return nil, err
	}
	defer e.Close()

	admin := e.NewSession()
	if _, err := admin.Query(fmt.Sprintf(
		"CREATE RESOURCE QUEUE serving WITH (active_statements = %d)", cfg.QueueActive)); err != nil {
		return nil, err
	}
	// Key space: customers at SF sf is 150000*sf.
	maxKey := int(150000 * cfg.Bench.SFSmall)
	if maxKey < 1 {
		maxKey = 1
	}
	mix := servingMix(maxKey)

	res := &ConcurrencyResult{Segments: cfg.Bench.Segments, ScaleFactor: cfg.Bench.SFSmall}
	for _, q := range mix {
		res.Mix = append(res.Mix, q.name)
	}
	for _, level := range cfg.Levels {
		for _, mode := range cfg.Modes {
			// Two passes per cell, keeping the second: the first pass
			// absorbs runtime ramp at a new session count (OS threads,
			// GC sizing) that would otherwise bias whichever mode runs
			// first at each level.
			if _, err := runConcurrencyCell(e, mix, level, mode, cfg.OpsPerLevel); err != nil {
				return nil, fmt.Errorf("level %d mode %s (ramp): %w", level, mode, err)
			}
			pt, err := runConcurrencyCell(e, mix, level, mode, cfg.OpsPerLevel)
			if err != nil {
				return nil, fmt.Errorf("level %d mode %s: %w", level, mode, err)
			}
			res.Points = append(res.Points, *pt)
		}
	}
	return res, nil
}

// runConcurrencyCell measures one (sessions, mode) cell: a closed loop
// where every session issues its share of the op budget back to back.
func runConcurrencyCell(e *engine.Engine, mix []mixQuery, sessions int, mode string, totalOps int) (*ConcurrencyPoint, error) {
	perSession := totalOps / sessions
	if perSession < 1 {
		perSession = 1
	}
	// Each cell starts cold: without the flush, plans cached by one
	// cell leak into the next and every mode reports a warm cache.
	e.PlanCache().Flush()

	// Steady state, not cold start: every session runs a few unmeasured
	// warmup ops (absorbing planning misses, goroutine ramp, and
	// admission churn), then all sessions cross the start barrier
	// together and only that window is measured.
	warmup := perSession / 4
	if warmup < 1 {
		warmup = 1
	}
	if warmup > 8 {
		warmup = 8
	}

	type lat struct {
		d   time.Duration
		err bool
	}
	all := make([][]lat, sessions)
	var wg, ready sync.WaitGroup
	startGate := make(chan struct{})
	prepErr := make(chan error, sessions)
	runOp := func(s *engine.Session, g, i int) error {
		qi := (g + i) % len(mix)
		q := mix[qi]
		arg := q.arg(g*perSession + i)
		var err error
		if mode == ModeSimple {
			_, err = s.Query(substituteArg(q.sql, arg))
		} else {
			_, err = s.ExecutePrepared(fmt.Sprintf("mix%d", qi), arg)
		}
		return err
	}
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		ready.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := setupSession(e, mix, mode)
			for i := 0; err == nil && i < warmup; i++ {
				// Warmup args sit past the measured index space so they
				// cycle the same key distribution without aliasing it.
				err = runOp(s, g, perSession+i)
			}
			ready.Done()
			if err != nil {
				prepErr <- err
				return
			}
			<-startGate
			lats := make([]lat, 0, perSession)
			for i := 0; i < perSession; i++ {
				//hawqcheck:ignore clockwall — benchmarks measure real wall time by design
				start := time.Now()
				err := runOp(s, g, i)
				//hawqcheck:ignore clockwall — benchmarks measure real wall time by design
				lats = append(lats, lat{d: time.Since(start), err: err != nil})
			}
			all[g] = lats
		}(g)
	}
	ready.Wait()
	cacheBefore := e.PlanCache().Stats()
	//hawqcheck:ignore clockwall — benchmarks measure real wall time by design
	wallStart := time.Now()
	close(startGate)
	wg.Wait()
	//hawqcheck:ignore clockwall — benchmarks measure real wall time by design
	wall := time.Since(wallStart)
	select {
	case err := <-prepErr:
		return nil, err
	default:
	}

	var durs []time.Duration
	errs := 0
	for _, lats := range all {
		for _, l := range lats {
			if l.err {
				errs++
				continue
			}
			durs = append(durs, l.d)
		}
	}
	if len(durs) == 0 {
		return nil, fmt.Errorf("no successful operations")
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(durs)-1))
		return float64(durs[idx].Microseconds()) / 1000
	}
	cacheAfter := e.PlanCache().Stats()
	lookups := (cacheAfter.Hits - cacheBefore.Hits) + (cacheAfter.Misses - cacheBefore.Misses)
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(cacheAfter.Hits-cacheBefore.Hits) / float64(lookups)
	}
	return &ConcurrencyPoint{
		Sessions:     sessions,
		Mode:         mode,
		Ops:          len(durs),
		Errors:       errs,
		QPS:          float64(len(durs)) / wall.Seconds(),
		P50ms:        pct(0.50),
		P95ms:        pct(0.95),
		P99ms:        pct(0.99),
		CacheHitRate: hitRate,
	}, nil
}

// setupSession opens one bench session: queue admission and (outside
// simple mode) one prepared statement per mix entry named mix<i>.
func setupSession(e *engine.Engine, mix []mixQuery, mode string) (*engine.Session, error) {
	s := e.NewSession()
	if _, err := s.Query("SET resource_queue = serving"); err != nil {
		return nil, err
	}
	if mode != ModeSimple {
		for qi, q := range mix {
			if err := s.Prepare(fmt.Sprintf("mix%d", qi), q.sql); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// substituteArg inlines the single $1 argument into the SQL text (the
// simple-query baseline has no placeholders).
func substituteArg(sql string, arg types.Datum) string {
	lit := arg.String()
	if arg.K == types.KindString {
		lit = "'" + lit + "'"
	}
	out := make([]byte, 0, len(sql)+len(lit))
	for i := 0; i < len(sql); i++ {
		if sql[i] == '$' && i+1 < len(sql) && sql[i+1] == '1' {
			out = append(out, lit...)
			i++
			continue
		}
		out = append(out, sql[i])
	}
	return string(out)
}

// Report renders the sweep as a bench table.
func (r *ConcurrencyResult) Report() *Report {
	rep := &Report{
		Title:   "Concurrent serving: throughput and latency percentiles vs session count",
		Columns: []string{"sessions", "mode", "ops", "errors", "QPS", "p50 ms", "p95 ms", "p99 ms", "cache hit"},
		Notes: []string{
			fmt.Sprintf("TPC-H SF %g, %d segments; closed loop through resource queue", r.ScaleFactor, r.Segments),
			"modes: prepared (PREPARE once, EXECUTE per op), simple (SQL text per op)",
		},
	}
	for _, p := range r.Points {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", p.Sessions),
			p.Mode,
			fmt.Sprintf("%d", p.Ops),
			fmt.Sprintf("%d", p.Errors),
			fmt.Sprintf("%.1f", p.QPS),
			fmt.Sprintf("%.3f", p.P50ms),
			fmt.Sprintf("%.3f", p.P95ms),
			fmt.Sprintf("%.3f", p.P99ms),
			fmt.Sprintf("%.1f%%", p.CacheHitRate*100),
		})
	}
	return rep
}

// WriteJSON writes the sweep to path (BENCH_concurrency.json).
func (r *ConcurrencyResult) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
