package mathx

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// buildCSR assembles an n×n CSR from the entries stamp adds, summing
// duplicate (i, j) stamps; rows list their columns in ascending order.
func buildCSR(n int, stamp func(add func(i, j int, v float64))) *CSR {
	rows := make([]map[int]float64, n)
	stamp(func(i, j int, v float64) {
		if rows[i] == nil {
			rows[i] = map[int]float64{}
		}
		rows[i][j] += v
	})
	a := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i, row := range rows {
		cols := make([]int, 0, len(row))
		for j := range row {
			cols = append(cols, j)
		}
		sort.Ints(cols)
		for _, j := range cols {
			a.ColIdx = append(a.ColIdx, j)
			a.Val = append(a.Val, row[j])
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

// diagCSR is the diagonal matrix diag(d).
func diagCSR(d ...float64) *CSR {
	return buildCSR(len(d), func(add func(i, j int, v float64)) {
		for i, v := range d {
			add(i, i, v)
		}
	})
}

// solveCG is Jacobi-preconditioned CG, the reference iterative solve of
// these tests.
func solveCG(a *CSR, b, x []float64, rtol float64, maxIter int) CGResult {
	return SolveCGPrec(a, b, x, rtol, maxIter, newJacobi(a))
}

func TestCGPoisson(t *testing.T) {
	// Same Poisson problem as the tridiagonal test, via CG.
	n := 200
	h := 1.0 / float64(n+1)
	m := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = h * h
	}
	x := make([]float64, n)
	res := solveCG(m, b, x, 1e-12, 0)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := 0; i < n; i++ {
		xi := float64(i+1) * h
		want := xi * (1 - xi) / 2
		if math.Abs(x[i]-want) > 1e-8 {
			t.Fatalf("u(%v) = %v, want %v", xi, x[i], want)
		}
	}
}

func TestCGMatchesTridiag(t *testing.T) {
	n := 50
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	m := laplacian1D(n)
	x := make([]float64, n)
	res := solveCG(m, b, x, 1e-13, 0)
	if !res.Converged {
		t.Fatalf("CG did not converge")
	}
	sub := make([]float64, n)
	dia := make([]float64, n)
	sup := make([]float64, n)
	for i := 0; i < n; i++ {
		sub[i], dia[i], sup[i] = -1, 2, -1
	}
	want, err := SolveTridiag(sub, dia, sup, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("x[%d]=%v want %v", i, x[i], want[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := laplacian1D(5)
	x := []float64{1, 2, 3, 4, 5}
	res := solveCG(m, make([]float64, 5), x, 1e-12, 0)
	if !res.Converged {
		t.Fatalf("CG on zero RHS did not converge: %+v", res)
	}
	for i, v := range x {
		if math.Abs(v) > 1e-8 {
			t.Errorf("x[%d]=%v, want 0", i, v)
		}
	}
}

func TestCGWarmStart(t *testing.T) {
	n := 100
	m := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	cold := make([]float64, n)
	resCold := solveCG(m, b, cold, 1e-10, 0)
	// Warm start from the exact solution should converge immediately.
	warm := append([]float64(nil), cold...)
	resWarm := solveCG(m, b, warm, 1e-10, 0)
	if resWarm.Iterations > 2 {
		t.Errorf("warm start took %d iterations (cold: %d)", resWarm.Iterations, resCold.Iterations)
	}
}
