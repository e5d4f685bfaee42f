package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The per-statement path — session, engine, dispatcher, executor —
// executes the QD's *plan.Plan in place. plan.Encode/Decode are the
// §3.1 wire form, kept for TestSelfDescribedPlanExecutes and the
// benchmark's probes; none of these packages may call them or import a
// reflection codec again.
func TestStatementPathHasNoPlanCodec(t *testing.T) {
	for _, dir := range []string{".", "../executor", "../engine", "../session", "../interconnect"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" {
					t.Errorf("%s imports encoding/gob", path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "plan" &&
					(sel.Sel.Name == "Encode" || sel.Sel.Name == "Decode") {
					t.Errorf("%s calls plan.%s", path, sel.Sel.Name)
				}
				return true
			})
		}
	}
}
