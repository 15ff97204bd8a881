package rules

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dsmtherm/internal/ntrs"
)

// legacyMonteCarlo preserves the pre-kernel engine as the in-run
// baseline for BenchmarkMonteCarloParallel: one freshly seeded
// math/rand source per sample, a full technology deep copy per sample,
// a cold full-bracket solve per evaluation, and per-level sort
// aggregation. The batch-kernel engine must beat this, in the same
// benchmark invocation, by the margin BENCH_*.json records.
func legacyMonteCarlo(tech *ntrs.Technology, spec Spec, v Variation) ([]MCLevelResult, error) {
	if err := v.defaults(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	levels := designRuleLevels(tech)
	jp := make([][]float64, v.Samples)
	for s := range jp {
		rng := rand.New(rand.NewSource(sampleSeed(v.Seed, s)))
		pert := legacyPerturb(tech, v, rng)
		row := make([]float64, len(levels))
		for k, lvl := range levels {
			sol, err := solveSignal(pert, lvl, spec)
			if err != nil {
				return nil, err
			}
			row[k] = sol.Jpeak
		}
		jp[s] = row
	}
	var out []MCLevelResult
	for k, lvl := range levels {
		nom, err := solveSignal(tech, lvl, spec)
		if err != nil {
			return nil, err
		}
		js := make([]float64, v.Samples)
		for s := range jp {
			js[s] = jp[s][k]
		}
		sort.Float64s(js)
		r := MCLevelResult{
			Level:   lvl,
			P1:      percentile(js, 0.01),
			P50:     percentile(js, 0.50),
			P99:     percentile(js, 0.99),
			Nominal: nom.Jpeak,
		}
		r.GuardBand = r.Nominal / r.P1
		out = append(out, r)
	}
	return out, nil
}

// legacyPerturb deep-copies the technology with lognormal variations
// applied — the per-sample allocation pattern the mcKernel replaced.
func legacyPerturb(tech *ntrs.Technology, v Variation, rng *rand.Rand) *ntrs.Technology {
	p := tech.WithGapFill(tech.Gap) // deep copy
	ln := func(sigma float64) float64 {
		if sigma == 0 {
			return 1
		}
		return math.Exp(sigma * rng.NormFloat64())
	}
	for i := range p.Layers {
		l := &p.Layers[i]
		l.Width *= ln(v.Width)
		if l.Width > 0.98*l.Pitch {
			l.Width = 0.98 * l.Pitch
		}
		l.Thick *= ln(v.Thick)
		l.ILD *= ln(v.ILD)
	}
	p.Gap.ThermalCond *= ln(v.Kd)
	p.ILD.ThermalCond *= ln(v.Kd)
	return p
}

// BenchmarkMonteCarloKernel runs the same 150-sample guard-band study
// through the preserved legacy copy-per-sample engine ("legacy") and the
// batch-kernel engine ("kernel") in one invocation, both on one
// goroutine, so BENCH_*.json records the algorithmic gain alone.
func BenchmarkMonteCarloKernel(b *testing.B) {
	b.Run("legacy", func(b *testing.B) {
		v := defaultVariation()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := legacyMonteCarlo(ntrs.N250(), Spec{}, v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		v := defaultVariation()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MonteCarlo(ntrs.N250(), Spec{}, v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
