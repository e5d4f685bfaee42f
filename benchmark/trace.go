package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hawq/internal/engine"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/planner"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// traceStmt is one read statement of a workload, as the traced run
// executes it: once through a Session and once step by step.
type traceStmt struct {
	class string
	// sql is the statement text, with $n placeholders when args is set
	// (then the session executes it as a prepared statement).
	sql  string
	args []types.Datum
	// cached says the session serves this statement from its plan cache,
	// so the stepwise execution clones a kept plan instead of planning.
	cached bool
	// want is the expected result fingerprint.
	want string
}

// span is one timed call into a layer, recorded by the benchmark itself.
// Spans of one statement share Stmt; Parent is the id of the enclosing
// span (-1 for a statement's root). Times are nanoseconds since the
// recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: wall.Now()} }

// begin opens a span and returns its id.
func (r *spanRecorder) begin(name string, parent, stmt int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name, Start: int64(wall.Since(r.t0))})
	return id
}

// end closes a span and returns its duration.
func (r *spanRecorder) end(id int) time.Duration {
	r.spans[id].End = int64(wall.Since(r.t0))
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// selfUS returns, per span name, every span's self time in microseconds:
// its duration minus the part its children cover.
func (r *spanRecorder) selfUS() map[string][]float64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID])/1e3)
	}
	return out
}

// write stores the spans as JSON.
func (r *spanRecorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counters is a point-in-time reading of everything the traced run
// reports as a delta.
type counters struct {
	obs map[string]int64
	mem runtime.MemStats
	cpu time.Duration
}

func readCounters() counters {
	c := counters{obs: obs.Snapshot()}
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runTraced is the per-layer run. Phase A repeats the untraced loop
// between two counter readings; phase B executes the workload's read
// statements through a Session and step by step under the span recorder;
// phase C runs the side probes. End-to-end numbers come from the
// untraced run only; the difference between phase A here and the
// untraced run is the cost of reading counters, which is nil.
func runTraced(w workloadSpec, cfg config) (*runResult, error) {
	cfg.setups = 1
	base := runtime.NumGoroutine()
	st, _, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	res, err := measureTraced(w, cfg, st)
	if err = errors.Join(err, st.close()); err != nil {
		return nil, err
	}
	res.Metrics.put(perLayer, "runtime.goroutines_leaked", float64(settledGoroutines(base)-base), 0)
	return res, nil
}

// settledGoroutines waits briefly for goroutines that exit just after a
// Close returns, then reports the count.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		wall.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func measureTraced(w workloadSpec, cfg config, st state) (*runResult, error) {
	ref := newRefKernel()
	if err := warmUp(w, cfg, st, ref); err != nil {
		return nil, err
	}

	// Phase A: the workload's own loop between two counter readings.
	before := readCounters()
	rec := newRecorder(ref)
	st.loop(cfg.window, cfg.minPasses, rec)
	after := readCounters()
	res := newResult(w, cfg, true, rec)
	countMetrics(res.Metrics, rec, before, after)
	busiest := rec.classMS[rec.busiestClass()]
	tailMS, tailPct := tail(busiest)
	res.Metrics.put(perLayer, "client.tail_ms", tailMS, len(busiest))
	res.Metrics.put(perLayer, "client.tail_pct", tailPct, 0)
	classDetail(res.Detail, rec)

	// Phase B: session path against stepwise path.
	sp := newStepper(st.eng())
	if err := sp.run(st.traceStmts, cfg.window); err != nil {
		return nil, fmt.Errorf("%s: stepwise: %w", w.name, err)
	}
	sp.metrics(res.Metrics, res.Detail)
	res.Attempted += sp.attempted
	res.Failed += sp.failed
	if res.Failure == "" {
		res.Failure = sp.firstFailure
	}
	res.Correct = res.Failed == 0
	res.Metrics.put(perLayer, "trace.error_rate", errorRate(res), res.Attempted)

	// Phase C: side probes.
	if err := runProbes(res.Metrics, st.eng(), sp, cfg); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	return res, sp.rec.write(filepath.Join(cfg.scratch, "trace-"+w.name+".json"))
}

// countMetrics turns the two counter readings around phase A into the
// count-valued per-layer metrics. Counts are per pass; for the
// single-client workloads they repeat exactly from run to run.
func countMetrics(m metricSet, rec *recorder, before, after counters) {
	delta := func(name string) float64 { return float64(after.obs[name] - before.obs[name]) }
	passes := float64(len(rec.passS))
	perPass := func(metric, counter string) { m.put(perLayer, metric, delta(counter)/passes, len(rec.passS)) }
	perPass("hdfs.read_bytes", "hdfs.read_bytes")
	perPass("hdfs.write_bytes", "hdfs.write_bytes")
	perPass("hdfs.remote_reads", "hdfs.remote_reads")
	perPass("hdfs.truncates", "hdfs.truncates")
	perPass("interconnect.udp_bytes_sent", "interconnect.udp_bytes_sent")
	perPass("interconnect.udp_packets_sent", "interconnect.udp_packets_sent")
	perPass("interconnect.udp_retransmits", "interconnect.udp_retransmits")
	perPass("executor.rows_removed_by_runtime_filter", "executor.rows_removed_by_runtime_filter")
	perPass("executor.spill_bytes", "resource.spill_bytes")
	perPass("executor.batch_gets", "types.batch_gets")
	perPass("storage.pages_skipped", "storage.pages_skipped")
	m.put(perLayer, "resource.queue_waits", delta("resource.queue_waits"), 0)
	m.put(perLayer, "task.runs", delta("task.runs"), 0)

	lookups := delta("plan_cache.hits") + delta("plan_cache.misses")
	hitRate := 0.0
	if lookups > 0 {
		hitRate = delta("plan_cache.hits") / lookups
	}
	m.put(perLayer, "session.plan_cache_hit_rate", hitRate, int(lookups))

	// A write transaction is a COPY transaction (committed or rolled
	// back) or a single-row INSERT; on the read workloads every statement
	// is its own read-only transaction and must cost no fsync at all.
	txns := 0
	for _, c := range rec.classes() {
		if strings.HasPrefix(c, "copy_") || c == "insert" || c == "rollback" {
			txns += len(rec.classMS[c])
		}
	}
	if txns == 0 {
		txns = rec.attempted
	}
	m.put(perLayer, "wal.fsyncs_per_txn", delta("wal.fsyncs")/float64(txns), txns)
	m.put(perLayer, "wal.bytes_per_txn", delta("wal.bytes")/float64(txns), txns)

	// The reference kernel ran between the passes, one goroutine at a
	// time; its CPU time is about its wall time and is not the program's.
	ops := float64(rec.attempted)
	cpu := (after.cpu - before.cpu).Seconds()
	for _, s := range rec.refs {
		cpu -= (s[0] + s[1] + s[2]) / 1e3
	}
	m.put(perLayer, "ref.kernel_ms", refMS(rec.refs), len(rec.refs))
	m.put(perLayer, "runtime.cpu_s", cpu, 0)
	m.put(perLayer, "runtime.cpu_cores", cpu/rec.busyS(), 0)
	m.put(perLayer, "runtime.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/ops, rec.attempted)
	m.put(perLayer, "runtime.alloc_kb_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/ops/1024, rec.attempted)
	m.put(perLayer, "runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, int(after.mem.NumGC-before.mem.NumGC))
	m.put(perLayer, "runtime.peak_rss_mb", peakRSSMB(), 0)
	m.put(perLayer, "runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 0)
}

// stepper executes statements twice: through a Session, and step by
// step through the layers' public functions under the span recorder.
type stepper struct {
	e   *engine.Engine
	s   *engine.Session
	sub *engine.Session
	rec *spanRecorder
	// kept holds, per statement text, the parsed statement and (for
	// cached classes) the pristine plan clones are taken from.
	kept map[string]*keptStmt

	parseUS, planUS, cloneUS, encodeUS, decodeUS, dispatchUS []float64
	sessionUS, stepUS, overheadUS                            []float64
	encodedBytes, slices, qes                                []float64
	classSession, classStep                                  map[string][]float64
	// planVariants is the most distinct plans any one statement drew.
	planVariants int

	attempted, failed int
	firstFailure      string
}

// variantPlans is how often each of the first variantStmts distinct
// statements is planned again to count distinct plans.
const (
	variantPlans = 6
	variantStmts = 12
)

type keptStmt struct {
	stmt     *sqlparser.SelectStmt
	prepared string
	pristine *plan.Plan
}

func newStepper(e *engine.Engine) *stepper {
	return &stepper{
		e: e, s: e.NewSession(), sub: e.NewSession(), rec: newSpanRecorder(),
		kept: map[string]*keptStmt{}, classSession: map[string][]float64{}, classStep: map[string][]float64{},
	}
}

// planner builds a planner on a snapshot, the way the engine's session
// does, with scalar subqueries evaluated through a session.
func (sp *stepper) planner(snap tx.Snapshot, args []types.Datum, generic bool) *planner.Planner {
	cl := sp.e.Cluster()
	p := &planner.Planner{Cat: cl.Cat(), Snap: snap, NumSegments: cl.NumSegments()}
	if generic {
		p.GenericParams = true
	} else {
		p.Params = args
	}
	p.SubqueryEval = func(sub *sqlparser.SelectStmt) (types.Datum, error) {
		res, err := sp.sub.Query(sub.String())
		if err != nil {
			return types.Null, err
		}
		if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
			return types.Null, nil
		}
		if len(res.Rows) > 1 || len(res.Rows[0]) != 1 {
			return types.Null, fmt.Errorf("scalar subquery returned %d rows", len(res.Rows))
		}
		return res.Rows[0][0], nil
	}
	return p
}

// timedPlan plans a statement on a fresh read-only transaction and
// records the planning time.
func (sp *stepper) timedPlan(stmt *sqlparser.SelectStmt, args []types.Datum, generic bool) (*plan.Plan, error) {
	t := sp.e.Cluster().TxMgr.Begin(tx.ReadCommitted)
	defer t.Abort()
	start := wall.Now()
	pl, err := sp.planner(t.Snapshot(), args, generic).PlanSelect(stmt)
	sp.planUS = append(sp.planUS, us(wall.Since(start)))
	return pl, err
}

// keep parses a statement once and, for cached classes, plans it once:
// what the session's prepared-statement registry and plan cache hold.
func (sp *stepper) keep(ts traceStmt) (*keptStmt, error) {
	if k, ok := sp.kept[ts.sql]; ok {
		return k, nil
	}
	parsed, err := sqlparser.ParseOne(ts.sql)
	if err != nil {
		return nil, err
	}
	sel, ok := parsed.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("traced statement is a %T, want SELECT", parsed)
	}
	k := &keptStmt{stmt: sel}
	if len(ts.args) > 0 {
		k.prepared = fmt.Sprintf("trace%d", len(sp.kept))
		if err := sp.s.Prepare(k.prepared, ts.sql); err != nil {
			return nil, err
		}
	}
	if ts.cached {
		if k.pristine, err = sp.timedPlan(sel, nil, len(ts.args) > 0); err != nil {
			return nil, err
		}
	}
	// Plan every distinct statement a few more times on its own: a
	// planner that returns different plans for one statement on one
	// snapshot makes a whole run fast or slow by which plan the session
	// happened to cache.
	if len(sp.kept) < variantStmts {
		variants := map[string]bool{}
		for i := 0; i < variantPlans; i++ {
			pl, err := sp.timedPlan(sel, ts.args, false)
			if err != nil {
				return nil, err
			}
			variants[pl.Explain()] = true
		}
		sp.planVariants = max(sp.planVariants, len(variants))
	}
	sp.kept[ts.sql] = k
	return k, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// run executes round after round of statements for at least d and at
// least one full round. Every round asks the workload for its next
// statements, so text statements carry fresh literals and miss the
// session's plan cache as often as they do in the workload's loop.
func (sp *stepper) run(nextRound func() []traceStmt, d time.Duration) error {
	start := wall.Now()
	for id := 0; id == 0 || wall.Since(start) < d; {
		stmts := nextRound()
		if len(stmts) == 0 {
			return fmt.Errorf("no statements to trace")
		}
		for _, ts := range stmts {
			if err := sp.both(id, ts); err != nil {
				return err
			}
			id++
		}
	}
	return nil
}

// note records a statement's outcome for the error rate.
func (sp *stepper) note(what string, rows []types.Row, err error, want string) {
	sp.attempted++
	if err == nil && want != "" {
		if got := fingerprint(rows); got != want {
			err = errWrongAnswer(what, got, want)
		}
	}
	if err != nil {
		sp.failed++
		if sp.firstFailure == "" {
			sp.firstFailure = fmt.Sprintf("%s: %v", what, err)
		}
	}
}

// both runs one statement through the session and stepwise. Whichever
// path runs second finds the statement's pages and plans warm in the CPU
// caches, so the order alternates from statement to statement.
func (sp *stepper) both(id int, ts traceStmt) error {
	k, err := sp.keep(ts)
	if err != nil {
		return err
	}
	var sessionUS float64
	session := func() {
		start := wall.Now()
		var res *engine.Result
		var err error
		if k.prepared != "" {
			res, err = sp.s.ExecutePrepared(k.prepared, ts.args...)
		} else {
			res, err = sp.s.Query(ts.sql)
		}
		sessionUS = us(wall.Since(start))
		var rows []types.Row
		if err == nil {
			rows = res.Rows
		}
		sp.note("session "+ts.class, rows, err, ts.want)
	}
	if id%2 == 0 {
		session()
	}
	pl, core, total, rows, err := sp.stepwise(id, ts, k)
	sp.note("stepwise "+ts.class, rows, err, ts.want)
	if id%2 != 0 {
		session()
	}
	if err != nil {
		return nil
	}
	sp.sessionUS = append(sp.sessionUS, sessionUS)
	sp.stepUS = append(sp.stepUS, total)
	sp.overheadUS = append(sp.overheadUS, sessionUS-core)
	sp.classSession[ts.class] = append(sp.classSession[ts.class], sessionUS)
	sp.classStep[ts.class] = append(sp.classStep[ts.class], total)
	return sp.planProbe(pl)
}

// stepwise executes one statement through the layers' public functions:
// stmt → sqlparser.parse, tx.begin, planner.plan or plan.clone,
// cluster.dispatch, tx.commit. It returns the dispatched plan, the time
// spent in parse + plan-or-clone + dispatch, and the statement's total.
func (sp *stepper) stepwise(id int, ts traceStmt, k *keptStmt) (pl *plan.Plan, core, total float64, rows []types.Row, err error) {
	root := sp.rec.begin("stmt", -1, id)
	pl, core, rows, err = sp.steps(root, id, ts, k)
	return pl, core, us(sp.rec.end(root)), rows, err
}

// steps runs the child spans of one statement's root span.
func (sp *stepper) steps(root, id int, ts traceStmt, k *keptStmt) (pl *plan.Plan, core float64, rows []types.Row, err error) {
	cl := sp.e.Cluster()
	step := func(name string, samples *[]float64, fn func() error) error {
		sid := sp.rec.begin(name, root, id)
		err := fn()
		d := us(sp.rec.end(sid))
		if samples != nil {
			*samples = append(*samples, d)
			core += d
		}
		return err
	}

	stmt := k.stmt
	if k.prepared == "" {
		// A simple-query statement is parsed on every execution.
		if err = step("sqlparser.parse", &sp.parseUS, func() error {
			parsed, perr := sqlparser.ParseOne(ts.sql)
			if perr == nil {
				stmt = parsed.(*sqlparser.SelectStmt)
			}
			return perr
		}); err != nil {
			return nil, 0, nil, err
		}
	}
	var t *tx.Tx
	if err = step("tx.begin", nil, func() error { t = cl.TxMgr.Begin(tx.ReadCommitted); return nil }); err != nil {
		return nil, 0, nil, err
	}
	if ts.cached {
		// Clone + BindParams counts towards the statement's core time but
		// plan.clone_us is measured on its own by planProbe.
		var cloneAndBind []float64
		err = step("plan.clone", &cloneAndBind, func() error {
			var cerr error
			if pl, cerr = k.pristine.Clone(); cerr != nil {
				return cerr
			}
			if len(pl.ParamKinds) > 0 {
				return pl.BindParams(ts.args)
			}
			return nil
		})
	} else {
		err = step("planner.plan", &sp.planUS, func() error {
			var perr error
			pl, perr = sp.planner(t.Snapshot(), ts.args, false).PlanSelect(stmt)
			return perr
		})
	}
	if err != nil {
		t.Abort()
		return nil, 0, nil, err
	}
	if err = step("cluster.dispatch", &sp.dispatchUS, func() error {
		res, derr := cl.Dispatch(context.Background(), pl, nil)
		if derr == nil {
			rows = res.Rows
		}
		return derr
	}); err != nil {
		t.Abort()
		return nil, 0, nil, err
	}
	if err = step("tx.commit", nil, t.Commit); err != nil {
		return nil, 0, nil, err
	}
	return pl, core, rows, nil
}

// planProbe times the plan layer's public functions on the plan just
// dispatched and reads the gang sizes off it.
func (sp *stepper) planProbe(pl *plan.Plan) error {
	start := wall.Now()
	enc, err := plan.Encode(pl)
	if err != nil {
		return err
	}
	sp.encodeUS = append(sp.encodeUS, us(wall.Since(start)))
	sp.encodedBytes = append(sp.encodedBytes, float64(len(enc)))

	start = wall.Now()
	if _, err := plan.Decode(enc); err != nil {
		return err
	}
	sp.decodeUS = append(sp.decodeUS, us(wall.Since(start)))

	start = wall.Now()
	if _, err := pl.Clone(); err != nil {
		return err
	}
	sp.cloneUS = append(sp.cloneUS, us(wall.Since(start)))

	qes := 0
	for _, sl := range pl.Slices[1:] {
		qes += len(sl.Segments)
	}
	sp.slices = append(sp.slices, float64(len(pl.Slices)))
	sp.qes = append(sp.qes, float64(qes))
	return nil
}

// metrics reports the stepper's medians.
func (sp *stepper) metrics(m, detail metricSet) {
	med := func(name string, xs []float64) { m.put(perLayer, name, median(xs), len(xs)) }
	med("sqlparser.parse_us", sp.parseUS)
	med("planner.plan_us", sp.planUS)
	m.put(perLayer, "planner.plan_variants", float64(sp.planVariants), variantPlans)
	med("plan.encode_us", sp.encodeUS)
	med("plan.decode_us", sp.decodeUS)
	med("plan.clone_us", sp.cloneUS)
	med("plan.encoded_bytes", sp.encodedBytes)
	med("plan.slices", sp.slices)
	med("plan.qes", sp.qes)
	med("cluster.dispatch_us", sp.dispatchUS)
	med("engine.session_query_us", sp.sessionUS)
	med("engine.overhead_us", sp.overheadUS)
	var sumStep, sumSession float64
	for i := range sp.stepUS {
		sumStep += sp.stepUS[i]
		sumSession += sp.sessionUS[i]
	}
	deltaPct := 0.0
	if sumSession > 0 {
		deltaPct = (sumStep - sumSession) / sumSession * 100
	}
	m.put(perLayer, "trace.stepwise_delta_pct", deltaPct, len(sp.stepUS))
	for class, xs := range sp.classSession {
		detail["trace."+class+"_session_us"] = measurement{Value: median(xs), Unit: "us", N: len(xs)}
		detail["trace."+class+"_stepwise_us"] = measurement{Value: median(sp.classStep[class]), Unit: "us", N: len(xs)}
	}
	for name, xs := range sp.rec.selfUS() {
		detail["span."+name+"_self_us"] = measurement{Value: median(xs), Unit: "us", N: len(xs)}
	}
}
