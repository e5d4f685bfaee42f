package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hawq/internal/clock"
	"hawq/internal/engine"
)

// wall is the benchmark's only time source: real wall time, read through
// the repository's clock abstraction.
var wall = clock.Wall{}

// segments is the in-process cluster size every workload boots. The box
// has two cores; four segments keep multi-slice plans and 4-way gathers
// in play without measuring the Go scheduler.
const segments = 4

// config carries the knobs of one run. The driver sets seed, seconds and
// trace; everything else keeps its default outside the smoke test.
type config struct {
	seed int64
	// window is the measured closed-loop window.
	window time.Duration
	// warmup is the discarded warm-up before the window.
	warmup time.Duration
	// minPasses keeps a run going past the window until this many passes
	// are in, so medians never rest on a handful of samples.
	minPasses int
	// scale multiplies every workload's TPC-H scale factor and row
	// counts (1 for tracked runs, smaller in the smoke test).
	scale float64
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// scratch is a directory inside the checkout for WAL segments, spill
	// files and trace output.
	scratch string
}

// defaultConfig is what tracked runs use.
func defaultConfig() config {
	return config{
		seed:      1,
		window:    10 * time.Second,
		warmup:    time.Second,
		minPasses: 7,
		scale:     1,
		setups:    3,
		scratch:   filepath.Join("benchmark", "out"),
	}
}

// recorder accumulates what a closed loop observed: per-class latencies,
// pass times with the reference kernel's time before each pass, and the
// attempted/failed statement counts.
type recorder struct {
	ref       *refKernel
	classMS   map[string][]float64
	passS     []float64
	refs      []refSample
	attempted int
	failed    int
	// detail takes workload-specific rows a loop wants printed.
	detail metricSet
	// firstFailure keeps the first wrong answer or error for the report.
	firstFailure string
}

// newRecorder returns an empty recorder. ref may be nil for a recorder
// that only collects one client's statements and starts no passes.
func newRecorder(ref *refKernel) *recorder {
	return &recorder{ref: ref, classMS: map[string][]float64{}, detail: metricSet{}}
}

// beginPass times the reference kernel and then starts a pass. Nothing
// of the workload runs while the kernel does.
func (r *recorder) beginPass() time.Time {
	r.refs = append(r.refs, r.ref.run())
	return wall.Now()
}

// endPass closes the pass beginPass opened.
func (r *recorder) endPass(start time.Time) {
	r.passS = append(r.passS, wall.Since(start).Seconds())
}

// busyS is the time spent inside passes: the window without the
// reference kernel's share.
func (r *recorder) busyS() float64 {
	sum := 0.0
	for _, p := range r.passS {
		sum += p
	}
	return sum
}

// observe records one statement of a class: its latency and whether its
// answer was right.
func (r *recorder) observe(class string, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstFailure == "" {
			r.firstFailure = fmt.Sprintf("%s: %v", class, err)
		}
		return
	}
	r.classMS[class] = append(r.classMS[class], float64(d)/float64(time.Millisecond))
}

// merge folds a client's statements into r.
func (r *recorder) merge(o *recorder) {
	for c, xs := range o.classMS {
		r.classMS[c] = append(r.classMS[c], xs...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
}

// busiestClass returns the class with the most samples (the first in
// name order among equals): the one whose tail is worth reporting.
func (r *recorder) busiestClass() string {
	best := ""
	for _, c := range r.classes() {
		if best == "" || len(r.classMS[c]) > len(r.classMS[best]) {
			best = c
		}
	}
	return best
}

// classes returns the recorded class names in sorted order.
func (r *recorder) classes() []string {
	names := make([]string, 0, len(r.classMS))
	for c := range r.classMS {
		names = append(names, c)
	}
	sort.Strings(names)
	return names
}

// state is one workload, set up and ready to run.
type state interface {
	// engine returns the system under test.
	eng() *engine.Engine
	// oracle builds the expected answers. It runs after set-up and is not
	// part of setup_s: it is the benchmark's work, not the system's.
	oracle() error
	// loop drives the closed loop for at least d and at least minPasses
	// passes, recording into rec.
	loop(d time.Duration, minPasses int, rec *recorder)
	// storedBytesPerRow is the space cost of what the workload stored.
	storedBytesPerRow() float64
	// traceStmts returns the next round of the workload's read statements
	// for the stepwise traced execution; every call continues the seeded
	// stream, so statements with inlined literals are fresh each round as
	// they are in the loop.
	traceStmts() []traceStmt
	// close tears everything down and waits for it.
	close() error
}

// workloadSpec names a workload and knows how to set it up.
type workloadSpec struct {
	name  string
	why   string
	setup func(cfg config) (state, error)
}

// workloads is the benchmark's fixed list, in BENCHMARK.json order.
var workloads = []workloadSpec{
	{"tpch_scan", "simple-selection TPC-H set on column+quicklz: storage decode, compress, expr kernels and agg dominate; dispatch and wire changes must show no change", setupTPCHScan},
	{"tpch_join", "complex-join TPC-H set on row+quicklz: planner join order, hash joins, runtime filters and interconnect motions dominate; scans are the minor part", setupTPCHJoin},
	{"serve_point", "2 wire clients, 60/20/20 prepared point / text point / prepared 4-segment fanout: fixed per-statement cost is the whole story; scan kernels must show no change", setupServe},
	{"load_txn", "COPY and single-row INSERT transactions with 1-in-10 rollbacks into row, column and parquet tables on an fsync-per-commit WAL: the write side no read workload touches", setupLoad},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failure   string    `json:"failure,omitempty"`
	Metrics   metricSet `json:"metrics"`
	// Detail holds the workload-specific rows (per-query and per-class
	// medians and tails) that not every workload can emit and that are
	// therefore not part of the BENCHMARK.json contract.
	Detail metricSet `json:"detail"`
}

// setUp runs the workload's set-up cfg.setups times, keeping the last
// instance, and returns the median set-up time. It is not scaled by the
// reference kernel: set-up is one long, mostly single-threaded load whose
// ten-seed spread is 4-6 % as it is, and kernel samples around it added
// more noise than they removed drift (9 %).
func setUp(w workloadSpec, cfg config) (state, float64, error) {
	var st state
	var times []float64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, 0, fmt.Errorf("%s: close between set-ups: %w", w.name, err)
			}
		}
		start := wall.Now()
		var err error
		st, err = w.setup(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, wall.Since(start).Seconds())
	}
	return st, median(times), nil
}

// runUntraced is the end-to-end run: set-up, oracle, warm-up, GC, the
// measured window, and the five end-to-end metrics.
func runUntraced(w workloadSpec, cfg config) (*runResult, error) {
	st, setupS, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	res, err := measureUntraced(w, cfg, st)
	if err == nil {
		res.Metrics.put(endToEnd, "setup_s", setupS, cfg.setups)
	}
	return res, errors.Join(err, st.close())
}

// warmUp builds the oracle, runs the discarded warm-up and collects
// garbage, so the measured window starts from the same state in the
// untraced and the traced run.
func warmUp(w workloadSpec, cfg config, st state, ref *refKernel) error {
	if err := st.oracle(); err != nil {
		return fmt.Errorf("%s: oracle: %w", w.name, err)
	}
	st.loop(cfg.warmup, 1, newRecorder(ref))
	runtime.GC()
	return nil
}

func measureUntraced(w workloadSpec, cfg config, st state) (*runResult, error) {
	ref := newRefKernel()
	if err := warmUp(w, cfg, st, ref); err != nil {
		return nil, err
	}
	rec := newRecorder(ref)
	st.loop(cfg.window, cfg.minPasses, rec)
	res := newResult(w, cfg, false, rec)
	kernelMS := refMS(rec.refs)
	scale := refScale(kernelMS)
	passS, qps, geomeanMS := median(rec.passS), float64(rec.attempted-rec.failed)/rec.busyS(), classGeomean(rec)
	res.Metrics.put(endToEnd, "pass_s", passS*scale, len(rec.passS))
	res.Metrics.put(endToEnd, "qps", qps/scale, rec.attempted)
	res.Metrics.put(endToEnd, "class_geomean_ms", geomeanMS*scale, len(rec.classMS))
	res.Metrics.put(endToEnd, "stored_bytes_per_row", st.storedBytesPerRow(), 0)
	res.Detail["raw.pass_s"] = measurement{Value: passS, Unit: "s", N: len(rec.passS)}
	res.Detail["raw.qps"] = measurement{Value: qps, Unit: "1/s", N: rec.attempted}
	res.Detail["raw.class_geomean_ms"] = measurement{Value: geomeanMS, Unit: "ms", N: len(rec.classMS)}
	res.Detail["ref.kernel_ms"] = measurement{Value: kernelMS, Unit: "ms", N: len(rec.refs)}
	classDetail(res.Detail, rec)
	return res, nil
}

func newResult(w workloadSpec, cfg config, traced bool, rec *recorder) *runResult {
	return &runResult{
		Workload:  w.name,
		Seed:      cfg.seed,
		Traced:    traced,
		Correct:   rec.failed == 0 && rec.attempted > 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Failure:   rec.firstFailure,
		Metrics:   metricSet{},
		Detail:    metricSet{},
	}
}

// classGeomean is the geometric mean over the workload's statement
// classes of each class's median latency, so one dominant class cannot
// hide the others.
func classGeomean(rec *recorder) float64 {
	var meds []float64
	for _, c := range rec.classes() {
		meds = append(meds, median(rec.classMS[c]))
	}
	return geomean(meds)
}

// classDetail adds the per-class median and tail rows, as observed (not
// scaled by the reference kernel), and the loop's own rows.
func classDetail(out metricSet, rec *recorder) {
	for name, m := range rec.detail {
		out[name] = m
	}
	for _, c := range rec.classes() {
		xs := rec.classMS[c]
		out["class."+c+"_p50_ms"] = measurement{Value: median(xs), Unit: "ms", N: len(xs)}
		t, pct := tail(xs)
		out[fmt.Sprintf("class.%s_p%g_ms", c, pct)] = measurement{Value: t, Unit: "ms", N: len(xs)}
	}
}

// scratchDir creates a fresh directory under cfg.scratch.
func scratchDir(cfg config, prefix string) (string, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.scratch, prefix)
}
