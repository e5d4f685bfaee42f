// Command benchmark is the repository's one tracked benchmark: four
// workloads on a 4-segment in-process cluster, five end-to-end metrics
// every workload emits from an untraced run, and a per-layer budget the
// traced run measures from outside — wall-clock spans around calls into
// each layer's public functions, obs.Snapshot() deltas and side probes.
// BENCHMARK.json at the repository root is the contract; README.md in
// this directory explains every workload, metric and bound.
//
// The driver runs
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. Without --workload the
// command runs every workload, untraced then traced, -repeat times, and
// writes benchmark/out/result.json (-pair b.json makes every run twice,
// interleaved, for two sets of one commit); -compare a.json b.json judges
// two such files against each metric's direction and bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and end with the driver's JSON line (default: all four)")
	seconds := fs.Float64("seconds", cfg.window.Seconds(), "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "with -workload: 0 = untraced end-to-end run, 1 = traced per-layer run")
	repeat := fs.Int("repeat", 3, "without -workload: runs per workload; every sample, the median and the quartiles are stored")
	out := fs.String("out", filepath.Join(cfg.scratch, "result.json"), "without -workload: where the result file is written")
	pair := fs.String("pair", "", "without -workload: make every run twice, alternating the order, and write the second set here")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	same := fs.Bool("same", false, "with -compare: the files are two sets of one commit; a difference beyond the bound in either direction is reported")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated input")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1), *same)
	}
	if *workload != "" {
		return runForDriver(*workload, cfg, *trace == 1)
	}
	outs := []string{*out}
	if *pair != "" {
		outs = append(outs, *pair)
	}
	return runAll(cfg, *repeat, outs)
}

// runForDriver is the contract mode: one workload, one run, a table for
// humans and the JSON object on the last line.
func runForDriver(name string, cfg config, traced bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	res, err := runOne(w, cfg, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(os.Stdout, res)
	line, err := json.Marshal(driverLine(res))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: incorrect results:", res.Failure)
		return 1
	}
	return 0
}

func runOne(w workloadSpec, cfg config, traced bool) (*runResult, error) {
	if traced {
		return runTraced(w, cfg)
	}
	return runUntraced(w, cfg)
}

// driverLine is the object the driver parses: exactly correct,
// attempted, failed and metrics.
func driverLine(res *runResult) map[string]any {
	metrics := map[string]any{}
	for name, m := range res.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

// printResult prints every metric of a run by name with its unit, sample
// count, direction and bound, then the workload-specific detail rows.
func printResult(out *os.File, res *runResult) {
	kind, defs := "untraced", endToEnd
	if res.Traced {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(out, "== %s (%s, seed %d): attempted %d, failed %d, error_rate %g\n",
		res.Workload, kind, res.Seed, res.Attempted, res.Failed, errorRate(res))
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", d.Bound*100)
		}
		fmt.Fprintf(out, "%-42s %16s %-8s n=%-6d %s is better%s\n", d.Name, formatValue(m.Value), m.Unit, m.N, d.Better, bound)
	}
	names := make([]string, 0, len(res.Detail))
	for name := range res.Detail {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Detail[name]
		fmt.Fprintf(out, "  %-40s %16s %-8s n=%d\n", name, formatValue(m.Value), m.Unit, m.N)
	}
	if res.Failure != "" {
		fmt.Fprintln(out, "first failure:", res.Failure)
	}
}

func errorRate(res *runResult) float64 {
	if res.Attempted == 0 {
		return 1
	}
	return float64(res.Failed) / float64(res.Attempted)
}
