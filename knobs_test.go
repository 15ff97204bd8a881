package dsmtherm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dsmtherm/internal/jobs"
	"dsmtherm/internal/server"
)

// The daemon's settable surface: deployment settings, settings with
// more than one value in use, and safety switches. Everything else the
// daemon does is one fixed policy (DESIGN.md, "Fixed serving policy"),
// so a new name here is a design decision, not a drive-by knob.
var (
	keptServerFields = []string{"Workers", "CacheEntries", "RequestTimeout", "EndpointTimeouts", "DrainTimeout", "SnapshotPath", "Jobs"}
	keptJobsFields   = []string{"Dir", "DefaultDeadline", "ChunkRetries", "ChunkDeadline", "DegradedOK"}
	keptFlags        = []string{
		"addr", "pprof", "workers", "cache", "timeout", "route-timeout", "drain", "snapshot-path",
		"jobs", "jobs-dir", "jobs-deadline", "chunk-retries", "chunk-deadline", "jobs-degraded-ok",
	}
)

// TestNoTuningKnobs fails on any exported field of server.Config or
// jobs.Config, or any dsmthermd flag, outside the kept sets above.
func TestNoTuningKnobs(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		kept []string
	}{
		{reflect.TypeOf(server.Config{}), keptServerFields},
		{reflect.TypeOf(jobs.Config{}), keptJobsFields},
	} {
		for _, f := range reflect.VisibleFields(c.typ) {
			if f.IsExported() && !slices.Contains(c.kept, f.Name) {
				t.Errorf("%s.%s: new exported setting; make it a constant or add it to the kept set", c.typ, f.Name)
			}
		}
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cmd/dsmthermd/main.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return true
		}
		// flag.*Var registrations take the destination first.
		arg := call.Args[0]
		if strings.HasSuffix(sel.Sel.Name, "Var") && len(call.Args) > 1 {
			arg = call.Args[1]
		}
		lit, ok := arg.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		flags = append(flags, name)
		if !slices.Contains(keptFlags, name) {
			t.Errorf("%s: new dsmthermd flag -%s; make it a constant or add it to the kept set", fset.Position(call.Pos()), name)
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatal("found no flag registrations in cmd/dsmthermd/main.go")
	}
}
