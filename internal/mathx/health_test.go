package mathx

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFirstNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want int
	}{
		{"empty", nil, -1},
		{"clean", []float64{0, 1.5, -2, 1e300}, -1},
		{"nan", []float64{0, math.NaN(), 1}, 1},
		{"posinf", []float64{math.Inf(1)}, 0},
		{"neginf", []float64{1, 2, math.Inf(-1)}, 2},
		{"first of several", []float64{math.NaN(), math.Inf(1)}, 0},
	} {
		if got := FirstNonFinite(tc.xs); got != tc.want {
			t.Errorf("%s: FirstNonFinite = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite("clean", []float64{1, 2, 3}); err != nil {
		t.Fatalf("clean vector: %v", err)
	}
	before := NumericStats().NonFiniteScans
	err := CheckFinite("poisoned field", []float64{1, math.NaN(), 3})
	if !errors.Is(err, ErrNumeric) {
		t.Fatalf("err = %v, want ErrNumeric", err)
	}
	if !strings.Contains(err.Error(), "poisoned field") || !strings.Contains(err.Error(), "entry 1") {
		t.Fatalf("error lacks diagnosis: %v", err)
	}
	if after := NumericStats().NonFiniteScans; after != before+1 {
		t.Fatalf("NonFiniteScans %d -> %d, want +1", before, after)
	}
}

func TestRelResidual(t *testing.T) {
	// 2x2 identity: residual of the exact solution is 0; of a wrong
	// solution, ‖b−x‖/‖b‖.
	a := diagCSR(1, 1)
	b := []float64{3, 4} // ‖b‖ = 5
	if r := RelResidual(a, []float64{3, 4}, b, nil); r != 0 {
		t.Fatalf("exact solution residual = %g", r)
	}
	if r := RelResidual(a, []float64{3, 0}, b, nil); math.Abs(r-4.0/5.0) > 1e-15 {
		t.Fatalf("wrong solution residual = %g, want 0.8", r)
	}
	// Zero b: absolute norm (no 0/0).
	if r := RelResidual(a, []float64{1, 0}, []float64{0, 0}, nil); r != 1 {
		t.Fatalf("zero-b residual = %g, want 1", r)
	}
}

// laplacian1D builds the SPD tridiagonal [-1, 2, -1] system of size n.
func laplacian1D(n int) *CSR {
	return buildCSR(n, func(add func(i, j int, v float64)) {
		for i := 0; i < n; i++ {
			add(i, i, 2)
			if i > 0 {
				add(i, i-1, -1)
			}
			if i < n-1 {
				add(i, i+1, -1)
			}
		}
	})
}

// TestCGNaNSystemDiverges is the "never hangs" acceptance: CG fed a
// NaN-contaminated system must return a structured divergence verdict
// promptly, not spin maxIter times or return garbage marked converged.
func TestCGNaNSystemDiverges(t *testing.T) {
	n := 16
	a := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	b[3] = math.NaN()
	x := make([]float64, n)
	before := NumericStats().CGDivergences
	res := solveCG(a, b, x, 1e-10, 10_000)
	if res.Converged {
		t.Fatalf("NaN system reported converged: %+v", res)
	}
	if !res.Diverged {
		t.Fatalf("NaN system not flagged Diverged: %+v", res)
	}
	if res.Iterations > 5 {
		t.Fatalf("divergence detection took %d iterations; want immediate", res.Iterations)
	}
	if after := NumericStats().CGDivergences; after != before+1 {
		t.Fatalf("CGDivergences %d -> %d, want +1", before, after)
	}
}

// TestCGSingularSystemTerminates: a singular operator (zero matrix)
// must terminate with a structured verdict — breakdown or stagnation —
// never hang and never claim convergence.
func TestCGSingularSystemTerminates(t *testing.T) {
	n := 8
	a := diagCSR(make([]float64, n)...)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res := solveCG(a, b, x, 1e-10, 1_000_000)
	if res.Converged {
		t.Fatalf("singular system reported converged: %+v", res)
	}
	if !res.Diverged && !res.Stagnated {
		t.Fatalf("singular system neither Diverged nor Stagnated: %+v", res)
	}
	if res.Iterations > cgStagnationWindow+5 {
		t.Fatalf("termination took %d iterations", res.Iterations)
	}
}

// TestCGStagnationDetected: an indefinite system CG cannot reduce must
// trip the stagnation window rather than burn the full iteration
// budget.
func TestCGStagnationDetected(t *testing.T) {
	// An indefinite diagonal (mixed signs) breaks CG's descent
	// guarantee; with a huge iteration budget, only the stagnation (or
	// divergence) guard ends the loop early.
	n := 64
	d := make([]float64, n)
	for i := range d {
		v := 1.0
		if i%2 == 0 {
			v = -1.0
		}
		d[i] = v * (1 + float64(i))
	}
	a := diagCSR(d...)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) + 1)
	}
	x := make([]float64, n)
	res := solveCG(a, b, x, 1e-300, 1_000_000)
	if res.Converged {
		return // some indefinite systems still hit the tolerance; fine
	}
	if !res.Diverged && !res.Stagnated {
		t.Fatalf("no early termination verdict: %+v", res)
	}
	if res.Iterations >= 1_000_000 {
		t.Fatalf("guards never fired; ran the full budget")
	}
}

// TestCGHealthyUnaffected pins the happy path: the guards must not
// perturb a clean solve.
func TestCGHealthyUnaffected(t *testing.T) {
	n := 64
	a := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res := solveCG(a, b, x, 1e-12, 10*n)
	if !res.Converged || res.Diverged || res.Stagnated {
		t.Fatalf("clean solve flagged: %+v", res)
	}
	if r := RelResidual(a, x, b, nil); r > 1e-10 {
		t.Fatalf("clean solve residual %g", r)
	}
}
