package mathx

import (
	"math/rand"
	"testing"
)

// BenchmarkSpMV measures CSR.MulVec on a 400×400 2-D Laplacian
// (160k rows, ~800k nonzeros).
func BenchmarkSpMV(b *testing.B) {
	a := laplacian2D(400, 400)
	x := randVec(rand.New(rand.NewSource(11)), a.N)
	y := make([]float64, a.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

// BenchmarkDot measures the chunk-bracketed reduction on 1M-element
// vectors.
func BenchmarkDot(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(3))
	x := randVec(rng, n)
	y := randVec(rng, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

// BenchmarkSolveCGPrecond compares the ladder's two CG preconditioners
// on the same system.
func BenchmarkSolveCGPrecond(b *testing.B) {
	a := laplacian2D(150, 100)
	rhs := randVec(rand.New(rand.NewSource(7)), a.N)
	ic0, err := NewIC0(a)
	if err != nil {
		b.Fatal(err)
	}
	for _, pc := range []struct {
		name string
		m    Preconditioner
	}{{"jacobi", newJacobi(a)}, {"ic0", ic0}} {
		m := pc.m
		b.Run(pc.name, func(b *testing.B) {
			x := make([]float64, a.N)
			var iters int
			for i := 0; i < b.N; i++ {
				for j := range x {
					x[j] = 0
				}
				res := SolveCGPrec(a, rhs, x, 1e-8, 10*a.N, m)
				if !res.Converged {
					b.Fatal("CG did not converge")
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iters")
		})
	}
}
