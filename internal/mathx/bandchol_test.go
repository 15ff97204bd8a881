package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestBandCholeskyMatchesCG: the direct solve agrees with a tightly
// converged PCG solution on the FDM-shaped Laplacian.
func TestBandCholeskyMatchesCG(t *testing.T) {
	a := laplacian2D(40, 30)
	c, err := NewBandCholesky(a, a.N)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bandwidth() != 40 {
		t.Errorf("bandwidth = %d, want 40 (= nx for row-major grid numbering)", c.Bandwidth())
	}
	rng := rand.New(rand.NewSource(5))
	b := randVec(rng, a.N)
	xd := make([]float64, a.N)
	c.Solve(b, xd)
	xi := make([]float64, a.N)
	if res := solveCG(a, b, xi, 1e-13, 10*a.N); !res.Converged {
		t.Fatal("reference CG did not converge")
	}
	for i := range xd {
		if math.Abs(xd[i]-xi[i]) > 1e-8*(1+math.Abs(xi[i])) {
			t.Fatalf("x[%d]: direct %v vs CG %v", i, xd[i], xi[i])
		}
	}
	// Residual of the direct solve itself.
	ax := make([]float64, a.N)
	a.MulVec(xd, ax)
	Axpy(-1, b, ax)
	if r := Norm2(ax) / Norm2(b); r > 1e-12 {
		t.Errorf("direct-solve relative residual %g", r)
	}
}

// TestBandCholeskySolveInPlace: b and x may alias.
func TestBandCholeskySolveInPlace(t *testing.T) {
	a := laplacian2D(12, 9)
	c, err := NewBandCholesky(a, a.N)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b := randVec(rng, a.N)
	want := make([]float64, a.N)
	c.Solve(b, want)
	c.Solve(b, b) // in place
	if !bitEqual(b, want) {
		t.Error("aliased solve differs from two-slice solve")
	}
}

// TestBandCholeskyBudget: a band wider than maxBand is refused with
// ErrBand rather than silently paying the memory.
func TestBandCholeskyBudget(t *testing.T) {
	a := laplacian2D(64, 4)
	if _, err := NewBandCholesky(a, 8); !errors.Is(err, ErrBand) {
		t.Fatalf("err = %v, want ErrBand (bandwidth 64 > budget 8)", err)
	}
}

// TestBandCholeskyNotSPD: an indefinite matrix fails at a pivot instead
// of producing NaNs.
func TestBandCholeskyNotSPD(t *testing.T) {
	a := diagCSR(1, -2, 1) // negative pivot
	if _, err := NewBandCholesky(a, 3); !errors.Is(err, ErrBand) {
		t.Fatalf("err = %v, want ErrBand", err)
	}
}
