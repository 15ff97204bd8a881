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

// TestNoPacingInNumericKernels fails on any time.Sleep or
// runtime.Gosched call in the non-test sources of the numeric packages,
// naming the file and line.
func TestNoPacingInNumericKernels(t *testing.T) {
	banned := map[string]string{"time": "Sleep", "runtime": "Gosched"}
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
		}
	}
}
