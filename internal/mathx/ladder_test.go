package mathx

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"dsmtherm/internal/faultinject"
)

// injectPrimaryFailure makes faultinject.SiteMathxSolve skip the first
// rung of every ladder solve until the returned cancel runs.
func injectPrimaryFailure() (cancel func()) {
	return faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
}

// TestLadderRungsMatchDirect forces each CG rung in turn — IC(0) by
// skipping the direct rung, Jacobi by skipping IC(0) on an iterative
// ladder — and checks both land on the direct solution, with every step
// down counted.
func TestLadderRungsMatchDirect(t *testing.T) {
	a := laplacian2D(40, 30)
	b := randVec(rand.New(rand.NewSource(21)), a.N)
	direct := NewLadder("direct test", a, true, 1e-12, 0)
	if !direct.Direct() {
		t.Fatal("40x30 Laplacian did not take the direct rung")
	}
	want := make([]float64, a.N)
	if err := direct.Solve(context.Background(), b, want, nil); err != nil {
		t.Fatal(err)
	}

	cancel := injectPrimaryFailure()
	defer cancel()
	for _, tc := range []struct {
		rung   string
		ladder *Ladder
	}{
		{"ic0", direct},
		{"jacobi", NewLadder("iterative test", a, false, 1e-12, 0)},
	} {
		before := NumericStats().FallbackSolves
		got := make([]float64, a.N)
		if err := tc.ladder.Solve(context.Background(), b, got, nil); err != nil {
			t.Fatalf("%s rung: %v", tc.rung, err)
		}
		if after := NumericStats().FallbackSolves; after <= before {
			t.Fatalf("%s rung: FallbackSolves %d -> %d, want increase", tc.rung, before, after)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("%s rung: x[%d] = %g, direct %g", tc.rung, i, got[i], want[i])
			}
		}
	}
}

// TestLadderExhaustionIsStructured: when every rung fails, the caller
// gets ErrNumeric with a diagnosis, not a bare string — driven on a
// ladder fed an unsolvable (singular) system.
func TestLadderExhaustionIsStructured(t *testing.T) {
	n := 8
	a := diagCSR(make([]float64, n)...)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	before := NumericStats()
	err := NewLadder("singular test", a, true, 1e-12, 2000).Solve(context.Background(), b, x, nil)
	if !errors.Is(err, ErrNumeric) {
		t.Fatalf("err = %v, want ErrNumeric", err)
	}
	after := NumericStats()
	if after.NumericFailures <= before.NumericFailures {
		t.Fatalf("NumericFailures %d -> %d, want increase", before.NumericFailures, after.NumericFailures)
	}
}
