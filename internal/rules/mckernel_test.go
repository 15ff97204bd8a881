package rules

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dsmtherm/internal/core"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/ntrs"
)

// kernelFixture builds one kernel plus the validated inputs it was built
// from, the way MonteCarloRows does.
func kernelFixture(t testing.TB, tech *ntrs.Technology, v Variation) (*mcKernel, Spec, []int) {
	t.Helper()
	spec := Spec{}
	if err := v.defaults(); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	levels := designRuleLevels(tech)
	noms, err := nominalSolutions(tech, spec, levels)
	if err != nil {
		t.Fatal(err)
	}
	hints := make([]float64, len(levels))
	for k := range noms {
		hints[k] = noms[k].Tm
	}
	k, err := newMCKernel(tech, spec, v, levels, hints)
	if err != nil {
		t.Fatal(err)
	}
	return k, spec, levels
}

// TestMCKernelAllocationFree pins the tentpole property: steady-state
// sample evaluation — reseed, restamp, two warm solves — performs zero
// heap allocations.
func TestMCKernelAllocationFree(t *testing.T) {
	k, _, levels := kernelFixture(t, ntrs.N250(), defaultVariation())
	row := make([]float64, len(levels))
	s := 0
	allocs := testing.AllocsPerRun(300, func() {
		if err := k.sample(s%150, row); err != nil {
			t.Fatal(err)
		}
		s++
	})
	if allocs > 0 {
		t.Errorf("kernel sample allocates %.2f/op, want 0", allocs)
	}
}

// TestMCKernelMatchesRebuild: a long-lived kernel marching through the
// sample range produces bit-identical rows to a throwaway kernel built
// fresh for every sample — no state leaks from one sample into the next
// through the restamped clone, the reused RNG, or the warm solver.
func TestMCKernelMatchesRebuild(t *testing.T) {
	tech := ntrs.N250()
	v := defaultVariation()
	k, spec, levels := kernelFixture(t, tech, v)
	row := make([]float64, len(levels))
	fresh := make([]float64, len(levels))
	for s := 0; s < 40; s++ {
		if err := k.sample(s, row); err != nil {
			t.Fatal(err)
		}
		k2, err := newMCKernel(tech, spec, v, k.levels, k.hints)
		if err != nil {
			t.Fatal(err)
		}
		if err := k2.sample(s, fresh); err != nil {
			t.Fatal(err)
		}
		for j := range row {
			if row[j] != fresh[j] {
				t.Fatalf("sample %d level %d: reused kernel %g != fresh kernel %g", s, levels[j], row[j], fresh[j])
			}
		}
	}
}

// TestMCKernelMatchesNaive cross-checks the in-place restamp and the
// warm-started solver against the naive reference: the same SplitMix64
// substream driving a full technology deep copy, a full Line rebuild
// (ntrs validation included), and a cold full-bracket core.Solve. The
// restamp must be exactly the rebuilt geometry, and warm vs cold
// bracketing must agree to root-search precision.
func TestMCKernelMatchesNaive(t *testing.T) {
	tech := ntrs.N250()
	v := defaultVariation()
	k, spec, levels := kernelFixture(t, tech, v)
	row := make([]float64, len(levels))
	for s := 0; s < 40; s++ {
		if err := k.sample(s, row); err != nil {
			t.Fatal(err)
		}
		src := &mathx.SplitMix64{}
		src.Seed(sampleSeed(v.Seed, s))
		pert := legacyPerturb(tech, v, rand.New(src))
		for j, lvl := range levels {
			sol, err := solveSignal(pert, lvl, spec)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(row[j]-sol.Jpeak) / sol.Jpeak; rel > 1e-9 {
				t.Fatalf("sample %d level %d: kernel %g vs naive %g (rel %g)", s, lvl, row[j], sol.Jpeak, rel)
			}
		}
	}
}

// TestMCKernelErrorNamesSample: an unsolvable sample surfaces
// ErrNoSolution through MonteCarloRows.
func TestMCKernelErrorNamesSample(t *testing.T) {
	spec := Spec{J0: 1e19} // EM budget can never be exhausted
	v := defaultVariation()
	_, err := MonteCarloRows(ntrs.N250(), spec, v, 0, v.Samples)
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("got %v, want ErrNoSolution", err)
	}
}

// TestMonteCarloFromRowsSketchRouting: below MCSketchThreshold the
// percentiles are the exact sorted interpolation (byte-identical to the
// historical path); at or above it they come from the quantile sketch,
// and the two agree within the documented relative accuracy.
func TestMonteCarloFromRowsSketchRouting(t *testing.T) {
	tech := ntrs.N250()
	spec := Spec{}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	levels := designRuleLevels(tech)

	makeRows := func(n int) ([][]float64, Variation) {
		rng := rand.New(rand.NewSource(11))
		jp := make([][]float64, n)
		for s := range jp {
			row := make([]float64, len(levels))
			for j := range row {
				row[j] = 1e10 * math.Exp(0.05*rng.NormFloat64())
			}
			jp[s] = row
		}
		return jp, Variation{Samples: n, Seed: 1}
	}

	exact := func(jp [][]float64, k int, p float64) float64 {
		js := make([]float64, len(jp))
		for s := range jp {
			js[s] = jp[s][k]
		}
		sort.Float64s(js)
		return percentile(js, p)
	}

	// Below threshold: byte-identical to the exact path.
	jp, v := makeRows(MCSketchThreshold - 1)
	res, err := MonteCarloFromRows(tech, spec, v, jp)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range res {
		if r.P1 != exact(jp, k, 0.01) || r.P50 != exact(jp, k, 0.50) || r.P99 != exact(jp, k, 0.99) {
			t.Fatalf("level %d below threshold: percentiles differ from exact sort", r.Level)
		}
	}

	// At the threshold: sketch path, within alpha of the exact order
	// statistic under the sketch's rank convention.
	jp, v = makeRows(MCSketchThreshold)
	res, err = MonteCarloFromRows(tech, spec, v, jp)
	if err != nil {
		t.Fatal(err)
	}
	sawSketch := false
	for k, r := range res {
		for _, q := range []struct{ got, p float64 }{{r.P1, 0.01}, {r.P50, 0.50}, {r.P99, 0.99}} {
			want := exact(jp, k, q.p)
			if math.Abs(q.got-want)/want > 2*MCSketchAlpha {
				t.Fatalf("level %d at threshold: Quantile(%g) = %g, exact %g", r.Level, q.p, q.got, want)
			}
			if q.got != want {
				sawSketch = true
			}
		}
	}
	if !sawSketch {
		t.Log("sketch path produced the exact values (possible but unlikely); routing not distinguished")
	}
}
