package dsmtherm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// numericPackages are the packages whose kernels run on request and job
// goroutines. Latency isolation between the serving and job lanes comes
// from structure (dedicated job workers, inline small kernels), so none
// of them may pace itself with sleeps or scheduler yields.
var numericPackages = []string{
	"mathx", "fdm", "powergrid", "chipcheck", "lifetime", "em", "core", "rules", "netcheck",
}

// walkNumericSources parses every non-test source of the numeric
// packages and hands each file to visit.
func walkNumericSources(t *testing.T, visit func(fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, pkg := range numericPackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no sources found (%v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			visit(fset, f)
		}
	}
}

// TestNoPacingInNumericKernels fails on any time.Sleep or
// runtime.Gosched call in the non-test sources of the numeric packages,
// naming the file and line.
func TestNoPacingInNumericKernels(t *testing.T) {
	banned := map[string]string{"time": "Sleep", "runtime": "Gosched"}
	walkNumericSources(t, func(fset *token.FileSet, f *ast.File) {
		// Local import name → banned function of that package.
		local := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			fn, ok := banned[p]
			if !ok {
				continue
			}
			name := p
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = fn
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] == sel.Sel.Name {
				t.Errorf("%s: %s.%s in a numeric kernel package", fset.Position(call.Pos()), x.Name, sel.Sel.Name)
			}
			return true
		})
	})
}

// TestNoGoroutinesOutsideForEach keeps one concurrency governor: the
// only go statement in the numeric packages' non-test sources is the
// fan-out inside mathx.ForEach. Engines run serially and callers
// parallelize over their range APIs through ForEach or the server pool.
func TestNoGoroutinesOutsideForEach(t *testing.T) {
	walkNumericSources(t, func(fset *token.FileSet, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			allowed := ok && f.Name.Name == "mathx" && fd.Recv == nil && fd.Name.Name == "ForEach"
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !allowed {
					t.Errorf("%s: go statement outside mathx.ForEach", fset.Position(g.Pos()))
				}
				return true
			})
		}
	})
}

// TestOneSolveLadder keeps one solve ladder: outside mathx, the numeric
// packages reach the CG kernels and the factorizations only through
// mathx.Ladder, so a new rung goes in one place.
func TestOneSolveLadder(t *testing.T) {
	banned := map[string]bool{"SolveCGPrec": true, "SolveCGScratch": true, "NewIC0": true, "NewBandCholesky": true}
	walkNumericSources(t, func(fset *token.FileSet, f *ast.File) {
		mathx := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "dsmtherm/internal/mathx" {
				mathx = "mathx"
				if imp.Name != nil {
					mathx = imp.Name.Name
				}
			}
		}
		if mathx == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && banned[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == mathx {
					t.Errorf("%s: mathx.%s outside mathx.Ladder", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	})
}
