package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite fixture golden files")

// newFixtureChecker loads the fixture module under testdata with a
// single analyzer enabled.
func newFixtureChecker(t *testing.T, a *Analyzer) *Checker {
	t.Helper()
	c, err := NewChecker(filepath.Join("testdata", "src", "fixmod"))
	if err != nil {
		t.Fatal(err)
	}
	c.Analyzers = []*Analyzer{a}
	return c
}

// fixtureFindings formats findings with paths relative to the fixture
// module root, matching the golden files.
func fixtureFindings(c *Checker) string {
	var b strings.Builder
	for _, f := range c.Findings {
		rel, err := filepath.Rel(c.RootDir, f.Pos.Filename)
		if err != nil {
			rel = f.Pos.Filename
		}
		fmt.Fprintf(&b, "%s:%d: %s: %s\n", filepath.ToSlash(rel), f.Pos.Line, f.Analyzer, f.Message)
	}
	return b.String()
}

// TestFixtures proves every analyzer fires on its known-bad fixture
// package and that the findings match the golden file checked in next
// to the fixture. Run with -update to regenerate the goldens.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"mutexbad", analyzerMutex},
		{"goleakbad", analyzerGoleak},
		{"errdropbad", analyzerErrdrop},
		{"simbad", analyzerDeterminism},
		{"planorderbad", analyzerDeterminism},
		{"docbad", analyzerDocstrings},
		{"lockorderbad", analyzerLockorder},
		{"ctxflowbad", analyzerCtxflow},
		{"batchlifebad", analyzerBatchlife},
		{"clockwallbad", analyzerClockwall},
		{"wiresafebad", analyzerWiresafe},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			c := newFixtureChecker(t, tc.analyzer)
			switch tc.analyzer {
			case analyzerDeterminism:
				c.DeterminismPkgs = []string{"fixmod/internal/simbad"}
				c.PlanOrderPkgs = []string{"fixmod/internal/planorderbad"}
			case analyzerCtxflow:
				c.CtxflowPkgs = []string{"fixmod/internal/" + tc.dir}
			case analyzerBatchlife:
				c.BatchPkg = "fixmod/internal/fixtypes"
			}
			if err := c.Check([]string{"fixmod/internal/" + tc.dir}); err != nil {
				t.Fatal(err)
			}
			got := fixtureFindings(c)
			golden := filepath.Join("testdata", "src", "fixmod", "internal", tc.dir, "findings.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", tc.dir, got, want)
			}
			if len(c.Findings) == 0 {
				t.Errorf("%s fixture produced no findings; the analyzer never fired", tc.analyzer.Name)
			}
		})
	}
}

// TestSuppression verifies the //hawqcheck:ignore directive keeps the
// annotated line out of the findings while the rest still fire.
func TestSuppression(t *testing.T) {
	c := newFixtureChecker(t, analyzerErrdrop)
	if err := c.Check([]string{"fixmod/internal/errdropbad"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range c.Findings {
		if f.Pos.Line >= 30 && f.Pos.Line <= 34 {
			t.Errorf("suppressed site still reported: %s", f)
		}
	}
	if len(c.Findings) == 0 {
		t.Fatal("unsuppressed drops were not reported")
	}
}

// TestJSONOutput locks down the -json diagnostic shape scripts/check.sh
// archives: the clockwallbad fixture rendered through writeJSON must
// match the checked-in golden byte for byte.
func TestJSONOutput(t *testing.T) {
	c := newFixtureChecker(t, analyzerClockwall)
	if err := c.Check([]string{"fixmod/internal/clockwallbad"}); err != nil {
		t.Fatal(err)
	}
	for i := range c.Findings {
		rel, err := filepath.Rel(c.RootDir, c.Findings[i].Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		c.Findings[i].Pos.Filename = filepath.ToSlash(rel)
	}
	var b strings.Builder
	if err := writeJSON(&b, c.Findings); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "src", "fixmod", "internal", "clockwallbad", "json.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("json output mismatch\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestRepoIsClean is the meta-test: the full analyzer suite over the
// real repository must report nothing. This is the same gate
// scripts/check.sh enforces; a regression that introduces a violation
// fails here with the finding text.
func TestRepoIsClean(t *testing.T) {
	c, err := NewChecker(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := c.DiscoverPackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no packages discovered")
	}
	if err := c.Check(paths); err != nil {
		t.Fatal(err)
	}
	for _, f := range c.Findings {
		t.Errorf("%s", f)
	}
}
