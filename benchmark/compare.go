package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// summary is one end-to-end metric of one workload over the repeated
// runs of a result file.
type summary struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

// workloadResult is everything a result file keeps for one workload.
type workloadResult struct {
	Workload string             `json:"workload"`
	Summary  map[string]summary `json:"summary"`
	Runs     []*runResult       `json:"runs"`
	Traced   *runResult         `json:"traced"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Repeat     int              `json:"repeat"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
}

// runAll runs every workload repeat times untraced (seeds seed,
// seed+1, ...) and once traced, prints every metric, and writes one
// result file per path in outs. With two paths every run is made twice,
// alternating which file receives the first of the pair, so that two
// sets of one commit see the same stretch of the box's drift. It returns
// the process exit code.
func runAll(cfg config, repeat int, outs []string) int {
	files := make([]resultFile, len(outs))
	for i := range files {
		files[i] = resultFile{Seed: cfg.seed, Seconds: cfg.window.Seconds(), Repeat: repeat, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	}
	code := 0
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, w := range workloads {
		wrs := make([]workloadResult, len(files))
		for i := range wrs {
			wrs[i] = workloadResult{Workload: w.name, Summary: map[string]summary{}}
		}
		for r := 0; r < repeat; r++ {
			c := cfg
			c.seed = cfg.seed + int64(r)
			for k := range wrs {
				wr := &wrs[(k+r)%len(wrs)]
				res, err := runUntraced(w, c)
				if err != nil {
					return fail(err)
				}
				printResult(os.Stdout, res)
				wr.Runs = append(wr.Runs, res)
				if !res.Correct {
					code = 1
				}
			}
		}
		for i := range wrs {
			wr := &wrs[i]
			for _, d := range endToEnd {
				s := summary{Unit: d.Unit}
				for _, run := range wr.Runs {
					s.Samples = append(s.Samples, run.Metrics[d.Name].Value)
				}
				s.Median = median(s.Samples)
				s.Q1, s.Q3 = quartiles(s.Samples)
				wr.Summary[d.Name] = s
			}
			traced, err := runTraced(w, cfg)
			if err != nil {
				return fail(err)
			}
			printResult(os.Stdout, traced)
			wr.Traced = traced
			if !traced.Correct {
				code = 1
			}
			files[i].Workloads = append(files[i].Workloads, *wr)
		}
	}
	for i, out := range outs {
		data, err := json.MarshalIndent(files[i], "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Println("wrote", out)
	}
	return code
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles judges result file b against a: one row per (workload,
// end-to-end metric), "ok" when b's median is no worse than a's by more
// than the metric's bound, "regressed" when it is, and "unresolved" when
// the run-to-run spread inside either file exceeds the bound, so the
// comparison cannot tell. With same set, a and b are two sets of one
// commit and a median that differs by more than the bound in either
// direction is "differs". The exit code is 1 if any row is not ok.
func compareFiles(out io.Writer, pathA, pathB string, same bool) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-12s %-22s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "worse %", "spread a", "spread b", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := findResult(b, wa.Workload)
		if !ok {
			fmt.Fprintf(out, "%-12s missing from %s\n", wa.Workload, pathB)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.Summary[d.Name], wb.Summary[d.Name]
			verdict := compareVerdict(d, sa.Samples, sb.Samples, same)
			if verdict != "ok" {
				code = 1
			}
			fmt.Fprintf(out, "%-12s %-22s %14s %14s %9.2f %8.2f %8.2f  %s\n", wa.Workload, d.Name,
				formatValue(sa.Median), formatValue(sb.Median), worse(d, sa.Median, sb.Median)*100,
				spread(sa.Samples)*100, spread(sb.Samples)*100, verdict)
		}
	}
	return code
}

// compareVerdict applies a metric's direction and bound to two sample
// sets; same makes the judgement symmetric: b against a and a against b.
func compareVerdict(d metricDef, a, b []float64, same bool) string {
	switch {
	case len(a) == 0 || len(b) == 0:
		return "unresolved"
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return "unresolved"
	case same && math.Max(worse(d, median(a), median(b)), worse(d, median(b), median(a))) > d.Bound:
		return "differs"
	case worse(d, median(a), median(b)) > d.Bound:
		return "regressed"
	}
	return "ok"
}

func findResult(f *resultFile, workload string) (workloadResult, bool) {
	for _, w := range f.Workloads {
		if w.Workload == workload {
			return w, true
		}
	}
	return workloadResult{}, false
}
