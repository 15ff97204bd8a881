package mathx

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// laplacian2D builds the standard SPD 5-point Laplacian on an nx×ny grid
// with unit spacing and a Dirichlet shift on the first row of cells (the
// same structure the FDM solver assembles).
func laplacian2D(nx, ny int) *CSR {
	idx := func(i, j int) int { return j*nx + i }
	return buildCSR(nx*ny, func(add func(i, j int, v float64)) {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				p := idx(i, j)
				if i+1 < nx {
					q := idx(i+1, j)
					add(p, p, 1)
					add(q, q, 1)
					add(p, q, -1)
					add(q, p, -1)
				}
				if j+1 < ny {
					q := idx(i, j+1)
					add(p, p, 1)
					add(q, q, 1)
					add(p, q, -1)
					add(q, p, -1)
				}
				if j == 0 {
					add(p, p, 2)
				}
			}
		}
	})
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// bitEqual compares two float64 slices for exact (bit-level) equality.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDotChunkBracketing pins Dot's summation order bit for bit: a
// vector spanning several ragged reduceChunk blocks sums each block on
// its own and adds the block partials in index order.
func TestDotChunkBracketing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 3*reduceChunk + 17
	a, b := randVec(rng, n), randVec(rng, n)
	want := 0.0
	for lo := 0; lo < n; lo += reduceChunk {
		part := 0.0
		for i := lo; i < min(lo+reduceChunk, n); i++ {
			part += a[i] * b[i]
		}
		want += part
	}
	if got := Dot(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Dot = %v, want the per-chunk reference %v bit for bit", got, want)
	}
}

// TestPreconditionerCutsIterations proves the point of IC(0): it beats
// Jacobi on the model conduction matrix.
func TestPreconditionerCutsIterations(t *testing.T) {
	a := laplacian2D(150, 100)
	rng := rand.New(rand.NewSource(9))
	b := randVec(rng, a.N)
	ic0, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	iters := map[string]int{}
	for name, m := range map[string]Preconditioner{"jacobi": newJacobi(a), "ic0": ic0} {
		x := make([]float64, a.N)
		res := SolveCGPrec(a, b, x, 1e-10, 0, m)
		if !res.Converged {
			t.Fatalf("%s did not converge", name)
		}
		iters[name] = res.Iterations
	}
	t.Logf("iterations: jacobi=%d ic0=%d", iters["jacobi"], iters["ic0"])
	if iters["ic0"] >= iters["jacobi"] {
		t.Errorf("IC(0) (%d iters) should beat Jacobi (%d)", iters["ic0"], iters["jacobi"])
	}
}

// TestIC0ExactOnTridiagonal: a tridiagonal SPD matrix has a fill-free
// Cholesky factor, so IC(0) is exact and a single preconditioner
// application solves the system.
func TestIC0ExactOnTridiagonal(t *testing.T) {
	n := 64
	a := buildCSR(n, func(add func(i, j int, v float64)) {
		for i := 0; i < n; i++ {
			add(i, i, 2.5)
			if i+1 < n {
				add(i, i+1, -1)
				add(i+1, i, -1)
			}
		}
	})
	m, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b := randVec(rng, n)
	z := make([]float64, n)
	m.Apply(b, z)
	// Check A·z ≈ b.
	az := make([]float64, n)
	a.MulVec(z, az)
	for i := range az {
		if math.Abs(az[i]-b[i]) > 1e-12*(1+math.Abs(b[i])) {
			t.Fatalf("IC(0) not exact on tridiagonal: row %d: %v vs %v", i, az[i], b[i])
		}
	}
}

// TestSolveCGZeroRHS locks the zero-b early return: exact x = 0,
// Converged, zero iterations, even from a nonzero warm start.
func TestSolveCGZeroRHS(t *testing.T) {
	a := laplacian2D(20, 20)
	b := make([]float64, a.N)
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i) + 1 // dirty warm start
	}
	res := solveCG(a, b, x, 1e-10, 0)
	if !res.Converged || res.Iterations != 0 || res.Residual != 0 {
		t.Fatalf("zero RHS: got %+v, want converged at 0 iterations", res)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("zero RHS must zero the solution; x[%d] = %v", i, v)
		}
	}
}

// TestSolveCGWarmStartConverges: a warm start near the solution converges
// in far fewer iterations than a cold start (the batched-RHS win).
func TestSolveCGWarmStartConverges(t *testing.T) {
	a := laplacian2D(80, 80)
	rng := rand.New(rand.NewSource(13))
	b := randVec(rng, a.N)
	ic0, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]float64, a.N)
	resCold := SolveCGPrec(a, b, cold, 1e-10, 0, ic0)
	if !resCold.Converged {
		t.Fatal("cold solve did not converge")
	}
	// Perturb b by 1% and warm-start from the previous solution.
	b2 := append([]float64(nil), b...)
	for i := range b2 {
		b2[i] *= 1.01
	}
	warm := append([]float64(nil), cold...)
	resWarm := SolveCGPrec(a, b2, warm, 1e-10, 0, ic0)
	if !resWarm.Converged {
		t.Fatal("warm solve did not converge")
	}
	if resWarm.Iterations >= resCold.Iterations {
		t.Errorf("warm start (%d iters) should beat cold start (%d)",
			resWarm.Iterations, resCold.Iterations)
	}
}

// TestHotLoopsAllocationFree locks the hot kernels at zero allocations:
// Dot, Axpy and CSR.MulVec need no per-call scratch.
func TestHotLoopsAllocationFree(t *testing.T) {
	a := laplacian2D(200, 200)
	rng := rand.New(rand.NewSource(5))
	x := randVec(rng, a.N)
	y := make([]float64, a.N)
	var sink float64
	cases := map[string]func(){
		"Dot":    func() { sink += Dot(x, x) },
		"Axpy":   func() { Axpy(0.5, x, y) },
		"MulVec": func() { a.MulVec(x, y) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %.0f allocs/op, want 0", name, allocs)
		}
	}
	_ = sink
}

// peakTracker records the highest number of tasks running at once.
type peakTracker struct{ cur, peak atomic.Int64 }

func (p *peakTracker) enter() {
	c := p.cur.Add(1)
	for {
		pk := p.peak.Load()
		if c <= pk || p.peak.CompareAndSwap(pk, c) {
			return
		}
	}
}

func (p *peakTracker) leave() { p.cur.Add(-1) }

// TestForEachRunsEveryIndexOnce: every index in [0, n) runs exactly
// once at any worker count, including n = 1.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		for _, n := range []int{1, 1000} {
			runs := make([]atomic.Int32, n)
			err := ForEach(context.Background(), n, w, func(ctx context.Context, i int) error {
				runs[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", w, n, i, c)
				}
			}
		}
	}
}

// TestForEachBoundsConcurrency: no more than workers tasks ever run at
// once.
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var pt peakTracker
	err := ForEach(context.Background(), 200, workers, func(ctx context.Context, i int) error {
		pt.enter()
		defer pt.leave()
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pk := pt.peak.Load(); pk > workers {
		t.Fatalf("observed %d concurrent tasks, bound %d", pk, workers)
	}
}

// TestForEachWorkersBelowOneRunsSerially: a worker count below one
// means serial, not "no workers" — every index still runs, one at a
// time.
func TestForEachWorkersBelowOneRunsSerially(t *testing.T) {
	for _, w := range []int{0, -5} {
		var pt peakTracker
		var ran atomic.Int64
		err := ForEach(context.Background(), 50, w, func(ctx context.Context, i int) error {
			pt.enter()
			defer pt.leave()
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 50 || pt.peak.Load() != 1 {
			t.Fatalf("workers=%d: ran %d of 50 tasks, peak concurrency %d", w, ran.Load(), pt.peak.Load())
		}
	}
}

// TestForEachZeroTasks: n = 0 never calls fn.
func TestForEachZeroTasks(t *testing.T) {
	for _, w := range []int{-1, 0, 1, 4} {
		err := ForEach(context.Background(), 0, w, func(ctx context.Context, i int) error {
			t.Fatalf("workers=%d: fn called for n = 0", w)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestForEachFirstErrorCancels: the first task error cancels the ctx
// the other tasks see, stops further indices from being claimed, and is
// the error returned.
func TestForEachFirstErrorCancels(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		boom := errors.New("boom")
		var after atomic.Int64
		err := ForEach(context.Background(), 1000, w, func(ctx context.Context, i int) error {
			if i == 3 {
				return boom
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			after.Add(1)
			return nil
		})
		if err != boom {
			t.Fatalf("workers=%d: err = %v, want boom itself", w, err)
		}
		if n := after.Load(); n > 900 {
			t.Errorf("workers=%d: error did not stop the loop: %d tasks ran", w, n)
		}
	}
}

// TestForEachErrorNormalization pins the errors.Is contract: when the
// parent ctx ends, the result matches its error even if a task error
// holds the cancellation cause, and that task error stays matchable.
func TestForEachErrorNormalization(t *testing.T) {
	sentinel := errors.New("task sentinel")

	t.Run("task error only", func(t *testing.T) {
		err := ForEach(context.Background(), 4, 2, func(ctx context.Context, i int) error { return sentinel })
		if !errors.Is(err, sentinel) || errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want the sentinel alone", err)
		}
	})

	t.Run("parent cancelled first", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := ForEach(ctx, 10, 2, func(ctx context.Context, i int) error {
			t.Error("fn called under a cancelled parent")
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("task error then parent cancel", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		defer cancel()
		started := make(chan struct{})
		err := ForEach(parent, 2, 2, func(ctx context.Context, i int) error {
			if i == 0 {
				// Fail only once the sibling runs, so it cannot be skipped.
				<-started
				return sentinel
			}
			close(started)
			// Cancel the parent only once the sentinel holds the cause.
			<-ctx.Done()
			cancel()
			return nil
		})
		if !errors.Is(err, context.Canceled) || !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want both context.Canceled and the sentinel", err)
		}
	})
}
