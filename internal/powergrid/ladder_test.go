package powergrid

import (
	"context"
	"errors"
	"math"
	"testing"

	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/phys"
)

// TestIRDropFallbackMatchesIC0: an injected primary-path failure at
// faultinject.SiteMathxSolve must push the IR-drop solve off its IC(0)
// preconditioner onto the Jacobi rung, with the same answer and the
// fallback counted.
func TestIRDropFallbackMatchesIC0(t *testing.T) {
	g := testGrid()
	loads := []Load{{Node{4, 4}, 0.2}}
	want, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}

	before := mathx.NumericStats()
	cancel := faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
	defer cancel()
	got, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatalf("fallback solve: %v", err)
	}
	after := mathx.NumericStats()
	if after.FallbackSolves <= before.FallbackSolves {
		t.Fatalf("FallbackSolves %d -> %d, want increase", before.FallbackSolves, after.FallbackSolves)
	}
	if math.Abs(got.WorstDrop-want.WorstDrop) > 1e-9*(1+math.Abs(want.WorstDrop)) {
		t.Fatalf("fallback WorstDrop %g, IC(0) %g", got.WorstDrop, want.WorstDrop)
	}
	if got.WorstDropNode != want.WorstDropNode {
		t.Fatalf("fallback worst node %+v, IC(0) %+v", got.WorstDropNode, want.WorstDropNode)
	}
}

// TestNodalSolveIntoAllocationFree pins the coupled loop's per-pass
// cost: a warm session that passes back its last Solution restamps,
// refactors IC(0) and solves without allocating.
func TestNodalSolveIntoAllocationFree(t *testing.T) {
	g := testGrid()
	nd, err := g.NewNodal([]Load{{Node{4, 4}, 0.5}, {Node{2, 6}, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, nd.NumBranches())
	for i := range temps {
		temps[i] = phys.CToK(100)
	}
	ctx := context.Background()
	sol, err := nd.SolveInto(ctx, temps, nil)
	if err != nil {
		t.Fatal(err)
	}
	pass := 0
	allocs := testing.AllocsPerRun(20, func() {
		// Move the temperatures each pass so every solve does CG work.
		pass++
		for i := range temps {
			temps[i] = phys.CToK(100) + float64(pass%3)
		}
		if sol, err = nd.SolveInto(ctx, temps, sol); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveInto allocates %v times per warm pass, want 0", allocs)
	}
}
