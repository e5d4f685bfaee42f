package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats a finding as file:line: analyzer: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// ignores maps filename -> line -> analyzer names suppressed there
	// (empty list = all analyzers).
	ignores map[string]map[int][]string
	// funcBodies maps a function or method object to its declaration,
	// so analyzers can follow same-package calls.
	funcBodies map[types.Object]*ast.FuncDecl
}

// Checker loads a module's packages with go/parser + go/types (no
// golang.org/x/tools) and runs the analyzers over them.
type Checker struct {
	Fset *token.FileSet
	// ModulePath is the module being checked; import paths under it are
	// resolved from RootDir, everything else from GOROOT source.
	ModulePath string
	RootDir    string
	// DeterminismPkgs are the import paths whose code must route
	// time/rand through injected sources (the simulated components).
	DeterminismPkgs []string
	// PlanOrderPkgs are the import paths whose output is a plan: one
	// statement over one snapshot must plan one way, so nothing there
	// may range over a map (the determinism analyzer's second rule).
	PlanOrderPkgs []string
	// CtxflowPkgs are the import paths whose unbounded loops and
	// blocking selects must observe query cancellation (ctx.Done /
	// Ctx.Err on some path) — the ctxflow analyzer's scope.
	CtxflowPkgs []string
	// ClockAllowPkgs are the import paths allowed to call the raw time
	// package (clockwall analyzer). Everything else must go through
	// internal/clock or carry an inline //hawqcheck:ignore clockwall
	// justification.
	ClockAllowPkgs []string
	// BatchPkg is the import path providing the pooled batch arenas
	// (GetBatch/PutBatch and GetVecBatch/PutVecBatch) whose lifetimes
	// batchlife tracks.
	BatchPkg string
	// Analyzers to run; defaults to allAnalyzers when nil.
	Analyzers []*Analyzer

	std      types.ImporterFrom
	pkgs     map[string]*Package
	loading  map[string]bool
	program  *program
	wire     *wiresafe
	Findings []Finding
}

// Analyzer is one named check run over every loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(c *Checker, pkg *Package)
}

// Analyzer names, shared by the Analyzer values and their Run
// functions (a constant avoids an initialization cycle).
const (
	nameMutex       = "mutexdiscipline"
	nameGoleak      = "goleak"
	nameErrdrop     = "errdrop"
	nameDeterminism = "determinism"
	nameDocstrings  = "docstrings"
	nameLockorder   = "lockorder"
	nameCtxflow     = "ctxflow"
	nameBatchlife   = "batchlife"
	nameClockwall   = "clockwall"
	nameWiresafe    = "wiresafe"
)

// allAnalyzers is the default analyzer suite, in reporting order: the
// per-function v1 checks first, then the whole-program v2 checks.
var allAnalyzers = []*Analyzer{
	analyzerMutex,
	analyzerGoleak,
	analyzerErrdrop,
	analyzerDeterminism,
	analyzerDocstrings,
	analyzerLockorder,
	analyzerCtxflow,
	analyzerBatchlife,
	analyzerClockwall,
	analyzerWiresafe,
}

// defaultDeterminismPkgs lists the simulated components (relative to
// the module path) that must be deterministic and replayable.
var defaultDeterminismPkgs = []string{
	"internal/hdfs",
	"internal/interconnect",
	"internal/resource",
	"internal/stinger",
	"internal/tpch",
	"internal/wal",
}

// defaultPlanOrderPkgs lists the packages (relative to the module path)
// that build plans, where map iteration order would become plan choice.
var defaultPlanOrderPkgs = []string{
	"internal/plan",
	"internal/planner",
}

// defaultCtxflowPkgs lists the query-path packages (relative to the
// module path) whose unbounded loops must observe cancellation: the
// packages a stuck query would wedge.
var defaultCtxflowPkgs = []string{
	"internal/cluster",
	"internal/engine",
	"internal/executor",
	"internal/interconnect",
	"internal/resource",
	"internal/session",
	"internal/task",
}

// defaultClockAllowPkgs lists the packages (relative to the module
// path) allowed to touch the raw time package: only the clock
// abstraction itself. Everything else must take a clock.Clock so the
// whole system stays drivable by clock.Sim.
var defaultClockAllowPkgs = []string{
	"internal/clock",
}

// NewChecker creates a checker for the module rooted at dir. It reads
// the module path from go.mod.
func NewChecker(dir string) (*Checker, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	c := &Checker{
		Fset:       token.NewFileSet(),
		ModulePath: modPath,
		RootDir:    root,
	}
	for _, p := range defaultDeterminismPkgs {
		c.DeterminismPkgs = append(c.DeterminismPkgs, modPath+"/"+p)
	}
	for _, p := range defaultPlanOrderPkgs {
		c.PlanOrderPkgs = append(c.PlanOrderPkgs, modPath+"/"+p)
	}
	for _, p := range defaultCtxflowPkgs {
		c.CtxflowPkgs = append(c.CtxflowPkgs, modPath+"/"+p)
	}
	for _, p := range defaultClockAllowPkgs {
		c.ClockAllowPkgs = append(c.ClockAllowPkgs, modPath+"/"+p)
	}
	c.BatchPkg = modPath + "/internal/types"
	c.init()
	return c, nil
}

func (c *Checker) init() {
	if c.Fset == nil {
		c.Fset = token.NewFileSet()
	}
	if c.Analyzers == nil {
		c.Analyzers = allAnalyzers
	}
	c.std = importer.ForCompiler(c.Fset, "source", nil).(types.ImporterFrom)
	c.pkgs = map[string]*Package{}
	c.loading = map[string]bool{}
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// DiscoverPackages returns the import paths of every package directory
// under the module root, skipping testdata, hidden and vendor dirs.
func (c *Checker) DiscoverPackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(c.RootDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != c.RootDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(c.RootDir, p)
				if err != nil {
					return err
				}
				ip := c.ModulePath
				if rel != "." {
					ip = c.ModulePath + "/" + filepath.ToSlash(rel)
				}
				paths = append(paths, ip)
				break
			}
		}
		return nil
	})
	sort.Strings(paths)
	return paths, err
}

// Check loads, type-checks and analyzes the given import paths (plus
// their intra-module dependencies). Findings accumulate in c.Findings.
func (c *Checker) Check(paths []string) error {
	for _, p := range paths {
		if _, err := c.load(p); err != nil {
			return err
		}
	}
	// Analyze only the requested packages, in deterministic order.
	sort.Strings(paths)
	for _, p := range paths {
		pkg := c.pkgs[p]
		for _, a := range c.Analyzers {
			a.Run(c, pkg)
		}
	}
	sort.Slice(c.Findings, func(i, j int) bool {
		a, b := c.Findings[i], c.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return nil
}

// dirFor maps an intra-module import path to its directory.
func (c *Checker) dirFor(path string) string {
	if path == c.ModulePath {
		return c.RootDir
	}
	rel := strings.TrimPrefix(path, c.ModulePath+"/")
	return filepath.Join(c.RootDir, filepath.FromSlash(rel))
}

func (c *Checker) isModulePath(path string) bool {
	return path == c.ModulePath || strings.HasPrefix(path, c.ModulePath+"/")
}

// load parses and type-checks one intra-module package (memoized).
func (c *Checker) load(path string) (*Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	if c.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	c.loading[path] = true
	defer delete(c.loading, path)

	dir := c.dirFor(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(c.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: (*checkerImporter)(c)}
	tpkg, err := conf.Check(path, c.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	pkg.ignores = collectIgnores(c.Fset, files)
	pkg.funcBodies = collectFuncBodies(files, info)
	c.pkgs[path] = pkg
	return pkg, nil
}

// checkerImporter resolves intra-module imports from the checked tree
// and everything else (stdlib) from source via GOROOT.
type checkerImporter Checker

// Import implements types.Importer.
func (ci *checkerImporter) Import(path string) (*types.Package, error) {
	return ci.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (ci *checkerImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	c := (*Checker)(ci)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if c.isModulePath(path) {
		pkg, err := c.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return c.std.ImportFrom(path, dir, mode)
}

// report records a finding unless suppressed by a
// //hawqcheck:ignore comment on the same or the preceding line.
func (c *Checker) report(pkg *Package, pos token.Pos, analyzer, msg string) {
	p := c.Fset.Position(pos)
	if suppressed(pkg.ignores, p, analyzer) {
		return
	}
	c.Findings = append(c.Findings, Finding{Pos: p, Analyzer: analyzer, Message: msg})
}

func suppressed(ignores map[string]map[int][]string, p token.Position, analyzer string) bool {
	lines := ignores[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		names, ok := lines[line]
		if !ok {
			continue
		}
		if len(names) == 0 {
			return true
		}
		for _, n := range names {
			if n == analyzer {
				return true
			}
		}
	}
	return false
}

// collectIgnores scans comments for the suppression directive:
//
//	//hawqcheck:ignore analyzer1,analyzer2   (no names = all analyzers)
//
// A directive suppresses findings on its own line and the line below.
func collectIgnores(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := map[string]map[int][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text := strings.TrimPrefix(cm.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "hawqcheck:ignore")
				if !ok {
					continue
				}
				var names []string
				for _, field := range strings.FieldsFunc(rest, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					// Trailing prose after the analyzer list is allowed:
					// stop at the first token that is not a known analyzer.
					known := false
					for _, a := range allAnalyzers {
						if field == a.Name {
							known = true
						}
					}
					if !known {
						break
					}
					names = append(names, field)
				}
				p := fset.Position(cm.Pos())
				if out[p.Filename] == nil {
					out[p.Filename] = map[int][]string{}
				}
				out[p.Filename][p.Line] = names
			}
		}
	}
	return out
}

// collectFuncBodies indexes function and method declarations by their
// types.Object so analyzers can follow same-package calls.
func collectFuncBodies(files []*ast.File, info *types.Info) map[types.Object]*ast.FuncDecl {
	out := map[types.Object]*ast.FuncDecl{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := info.Defs[fd.Name]; obj != nil {
				out[obj] = fd
			}
		}
	}
	return out
}

// calleeObject resolves the function object a call expression invokes,
// or nil for indirect calls and type conversions.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}
