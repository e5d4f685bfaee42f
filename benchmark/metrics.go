package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one tracked metric: its name, unit, direction and
// (for end-to-end metrics) the share of the parent's median by which it
// may worsen before a change counts as a regression. BENCHMARK.json
// carries the same list; bench_test.go asserts the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload emits every
// one of them from its untraced run (the driver's contract), so each is
// defined in terms all four workloads share: a set-up, passes over a
// fixed unit of work, statements, statement classes, stored bytes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"class_geomean_ms", "ms", "lower", 0.25},
	{"stored_bytes_per_row", "B", "lower", 0.01},
}

// perLayer lists the traced run's metrics, one group per package of the
// repository. All are measured from outside: wall-clock spans around
// calls into the layer's public functions, obs.Snapshot() deltas, and
// side probes over scratch data. Every workload emits all of them.
var perLayer = []metricDef{
	{"sqlparser.parse_us", "us", "lower", 0},
	{"planner.plan_us", "us", "lower", 0},
	{"planner.plan_variants", "count", "lower", 0},
	{"catalog.lookup_us", "us", "lower", 0},
	{"session.plan_cache_hit_rate", "ratio", "higher", 0},
	{"plan.encode_us", "us", "lower", 0},
	{"plan.decode_us", "us", "lower", 0},
	{"plan.clone_us", "us", "lower", 0},
	{"plan.encoded_bytes", "B", "lower", 0},
	{"plan.slices", "count", "lower", 0},
	{"plan.qes", "count", "lower", 0},
	{"cluster.dispatch_us", "us", "lower", 0},
	{"cluster.dispatch_floor_us", "us", "lower", 0},
	{"cluster.dispatch_direct_floor_us", "us", "lower", 0},
	{"engine.session_query_us", "us", "lower", 0},
	{"engine.overhead_us", "us", "lower", 0},
	{"tx.begin_commit_us", "us", "lower", 0},
	{"resource.acquire_us", "us", "lower", 0},
	{"resource.queue_waits", "count", "lower", 0},
	{"client.roundtrip_us", "us", "lower", 0},
	{"client.tail_ms", "ms", "lower", 0},
	{"client.tail_pct", "%", "higher", 0},
	{"storage.scan_mrows_per_s", "Mrows/s", "higher", 0},
	{"storage.scan_vec_mrows_per_s", "Mrows/s", "higher", 0},
	{"storage.pages_skipped", "count", "higher", 0},
	{"storage.write_mrows_per_s", "Mrows/s", "higher", 0},
	{"storage.bytes_per_row_ao", "B", "lower", 0},
	{"storage.bytes_per_row_co", "B", "lower", 0},
	{"storage.bytes_per_row_pq", "B", "lower", 0},
	{"compress.quicklz_compress_mb_s", "MB/s", "higher", 0},
	{"compress.quicklz_decompress_mb_s", "MB/s", "higher", 0},
	{"hdfs.read_bytes", "B", "lower", 0},
	{"hdfs.write_bytes", "B", "lower", 0},
	{"hdfs.remote_reads", "count", "lower", 0},
	{"hdfs.truncates", "count", "lower", 0},
	{"hdfs.read_mb_s", "MB/s", "higher", 0},
	{"hdfs.append_us", "us", "lower", 0},
	{"interconnect.udp_bytes_sent", "B", "lower", 0},
	{"interconnect.udp_packets_sent", "count", "lower", 0},
	{"interconnect.udp_retransmits", "count", "lower", 0},
	{"interconnect.stream_mb_s", "MB/s", "higher", 0},
	{"interconnect.stream_setup_us", "us", "lower", 0},
	{"executor.rows_removed_by_runtime_filter", "count", "higher", 0},
	{"executor.spill_bytes", "B", "lower", 0},
	{"executor.batch_gets", "count", "lower", 0},
	{"wal.fsyncs_per_txn", "count", "lower", 0},
	{"wal.bytes_per_txn", "B", "lower", 0},
	{"wal.commit_us", "us", "lower", 0},
	{"task.runs", "count", "lower", 0},
	{"ref.kernel_ms", "ms", "lower", 0},
	{"runtime.cpu_s", "s", "lower", 0},
	{"runtime.cpu_cores", "ratio", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_kb_per_op", "kB", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"runtime.goroutines_leaked", "count", "lower", 0},
	{"runtime.gomaxprocs", "count", "higher", 0},
	{"trace.stepwise_delta_pct", "%", "lower", 0},
	{"trace.error_rate", "ratio", "lower", 0},
}

// measurement is one reported number. N is the sample count behind it
// (0 for exact counts and ratios).
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet maps metric names to measurements.
type metricSet map[string]measurement

// put records a value under a declared metric, taking the unit from the
// declaration so the output and BENCHMARK.json cannot drift apart.
func (m metricSet) put(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = measurement{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// median returns the middle value of xs (mean of the middle two for an
// even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// the rule the driver applies to run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// tail returns the highest of p99.9, p99, p95, p90 and p75 that still has
// at least ten samples beyond it, with the percentile chosen; with fewer
// than forty samples it falls back to the median.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		idx := int(math.Ceil(p/100*float64(len(s)))) - 1
		if idx >= 0 && len(s)-1-idx >= 10 {
			return s[idx], p
		}
	}
	return median(s), 50
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// worse reports by what share b is worse than a under the metric's
// direction (negative when b is better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// formatValue prints a measurement with all its digits but no
// exponent noise for the table output.
func formatValue(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
