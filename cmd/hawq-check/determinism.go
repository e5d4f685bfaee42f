package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
)

// analyzerDeterminism enforces replayability in the simulated
// components (Checker.DeterminismPkgs — internal/hdfs,
// internal/interconnect, internal/stinger, internal/tpch by default):
// no direct wall-clock reads or sleeps (time.Now, time.Sleep,
// time.Since, time.After, time.NewTicker, ...) and no use of the
// global math/rand source (rand.Intn, rand.Float64, rand.Seed, ...).
// These packages must take an injected clock.Clock and a locally owned
// seeded *rand.Rand so fault-injection experiments replay
// deterministically. Constructing a seeded generator (rand.New,
// rand.NewSource, rand.NewZipf) is allowed — that is the convention.
//
// Its second rule covers the packages that build plans
// (Checker.PlanOrderPkgs — internal/plan, internal/planner): a range
// over a map there is a finding, because Go randomizes map iteration
// and whatever the loop chooses among becomes a plan choice — the greedy
// join order once drew two to six plans for one statement that way.
// Collect the keys and sort them, or keep a slice beside the map.
var analyzerDeterminism = &Analyzer{
	Name: nameDeterminism,
	Doc:  "direct time.Now/time.Sleep/global math/rand in simulated components; map ranges in plan builders",
	Run:  runDeterminism,
}

// nondeterministicTimeFuncs are the time package functions that read or
// wait on the wall clock.
var nondeterministicTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// seededRandConstructors are the math/rand functions that build a
// locally owned generator instead of touching the global source.
var seededRandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(c *Checker, pkg *Package) {
	if slices.Contains(c.PlanOrderPkgs, pkg.Path) {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if r, ok := n.(*ast.RangeStmt); ok {
					if _, isMap := pkg.Info.TypeOf(r.X).Underlying().(*types.Map); isMap {
						c.report(pkg, r.Pos(), nameDeterminism,
							"range over a map where plans are built; iteration order is random and must not reach a plan — range over sorted keys or a slice")
					}
				}
				return true
			})
		}
	}
	if !slices.Contains(c.DeterminismPkgs, pkg.Path) {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pkg.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			// Referencing a type (rand.Rand, time.Duration, time.Time)
			// is fine; only package-level function use is impure.
			if _, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func); !isFunc {
				return false
			}
			switch pn.Imported().Path() {
			case "time":
				if nondeterministicTimeFuncs[sel.Sel.Name] {
					c.report(pkg, sel.Pos(), nameDeterminism,
						fmt.Sprintf("time.%s in a simulated component; route it through the injected clock.Clock so runs replay deterministically", sel.Sel.Name))
				}
			case "math/rand", "math/rand/v2":
				if !seededRandConstructors[sel.Sel.Name] {
					c.report(pkg, sel.Pos(), nameDeterminism,
						fmt.Sprintf("rand.%s uses the global math/rand source; use a locally owned seeded *rand.Rand plumbed from config", sel.Sel.Name))
				}
			}
			return false
		})
	}
}
