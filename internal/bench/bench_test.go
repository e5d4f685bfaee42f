package bench

import (
	"testing"
	"time"

	"hawq/internal/stinger"
)

// TestFig6Smoke runs the smallest possible Figure 6 end to end: both
// engines load, the suite subset runs, and HAWQ comes out ahead.
func TestFig6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is slow")
	}
	cfg := Config{
		Segments: 2,
		SFSmall:  0.0005,
		SpillDir: t.TempDir(),
		Stinger: stinger.Config{
			MapTasks: 2, ReduceTasks: 2, Workers: 4,
			ContainerStartup: 2 * time.Millisecond,
			SpillDir:         t.TempDir(),
		},
		Queries: []int{1, 5, 6},
	}
	r, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][0] != "Stinger" {
		t.Fatalf("first row = %v", r.Rows[0])
	}
	if s := r.String(); s == "" {
		t.Fatal("empty report")
	}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is slow")
	}
	cfg := Config{Segments: 2, SFLarge: 0.0005, SpillDir: t.TempDir()}
	r, err := AblationReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("ablation rows = %v", r.Rows)
	}
}

// TestConcurrencySmoke runs a tiny concurrency sweep end to end: both
// modes at two levels, with the prepared mode hitting the plan cache.
func TestConcurrencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is slow")
	}
	res, err := RunConcurrency(ConcurrencyConfig{
		Bench:       Config{Segments: 2, SFSmall: 0.0005, SpillDir: t.TempDir()},
		Levels:      []int{1, 4},
		OpsPerLevel: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %+v", res.Points)
	}
	for _, p := range res.Points {
		if p.Errors != 0 {
			t.Fatalf("%d/%s: %d errors", p.Sessions, p.Mode, p.Errors)
		}
		if p.QPS <= 0 || p.P50ms <= 0 || p.P99ms < p.P50ms {
			t.Fatalf("%d/%s: bad stats %+v", p.Sessions, p.Mode, p)
		}
		// EXECUTE after the first op per (session, query) must hit.
		if p.Mode == ModePrepared && p.Ops >= 12 && p.CacheHitRate < 0.5 {
			t.Fatalf("%d/%s: cache hit rate %.2f", p.Sessions, p.Mode, p.CacheHitRate)
		}
	}
	if s := res.Report().String(); s == "" {
		t.Fatal("empty report")
	}
	path := t.TempDir() + "/BENCH_concurrency.json"
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrency256Sessions is the acceptance gate for the serving
// layer: 256 concurrent sessions complete the prepared mix (check.sh
// runs this under -race; the package TestMain verifies zero goroutine
// leaks afterwards).
func TestConcurrency256Sessions(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is slow")
	}
	res, err := RunConcurrency(ConcurrencyConfig{
		Bench:       Config{Segments: 2, SFSmall: 0.0005, SpillDir: t.TempDir()},
		Levels:      []int{256},
		OpsPerLevel: 512,
		Modes:       []string{ModePrepared},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Errors != 0 {
		t.Fatalf("256 sessions: %d errors", p.Errors)
	}
	if p.Ops != 512 {
		t.Fatalf("256 sessions: ops = %d, want 512", p.Ops)
	}
}
