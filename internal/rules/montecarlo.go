package rules

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dsmtherm/internal/core"
	"dsmtherm/internal/geometry"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/ntrs"
)

// Monte Carlo guard-banding: the deck's limits assume nominal geometry and
// material properties, but fabricated width, thickness, ILD and dielectric
// conductivity all vary. Sampling the self-consistent rule over those
// variations yields the percentile limit a robust deck should publish —
// the statistical companion to the paper's deterministic Tables 2–4.
//
// The sampling engine is built around a batch kernel (mcKernel) that
// owns one technology clone restamped in place per sample, one
// RNG reseeded per sample from the absolute sample index, and one reusable
// warm-started solver — so steady-state evaluation allocates nothing. The
// aggregation side switches from exact sorting to mergeable quantile
// sketches above MCSketchThreshold, keeping memory O(bins) per level
// however many samples stream through.

// Variation describes relative (1-σ, lognormal) process spreads.
type Variation struct {
	// Width, Thick, ILD are the geometric spreads; Kd the thermal
	// conductivity spread of the dielectrics.
	Width, Thick, ILD, Kd float64
	// Samples is the Monte Carlo size (default 200).
	Samples int
	// Seed makes runs reproducible (default 1). Each sample derives its
	// own RNG substream from (Seed, sample index), so the percentiles
	// depend only on Seed and Samples — never on how the sample range
	// was partitioned.
	Seed int64
}

func (v *Variation) defaults() error {
	if v.Samples == 0 {
		v.Samples = 200
	}
	if v.Seed == 0 {
		v.Seed = 1
	}
	if v.Width < 0 || v.Thick < 0 || v.ILD < 0 || v.Kd < 0 {
		return fmt.Errorf("%w: negative variation", ErrInvalid)
	}
	if v.Width > 0.3 || v.Thick > 0.3 || v.ILD > 0.3 || v.Kd > 0.5 {
		return fmt.Errorf("%w: variation beyond the lognormal small-spread regime", ErrInvalid)
	}
	if v.Samples < 10 {
		return fmt.Errorf("%w: need at least 10 samples", ErrInvalid)
	}
	return nil
}

// MCLevelResult summarizes the jpeak distribution for one level.
type MCLevelResult struct {
	Level int
	// P1, P50, P99 are signal-line jpeak percentiles across process
	// variation, A/m².
	P1, P50, P99 float64
	// Nominal is the unperturbed limit, A/m².
	Nominal float64
	// GuardBand = Nominal/P1: divide the nominal deck entry by this to be
	// safe at the 1st percentile of the process distribution.
	GuardBand float64
}

// Percentile aggregation strategy of MonteCarloFromRows. Below the
// threshold the per-level column is sorted and interpolated exactly —
// byte-identical to the historical behavior. At or above it, values
// stream through a mathx.QuantileSketch with relative accuracy
// MCSketchAlpha (0.1%, far inside Monte Carlo noise at that sample
// count), so aggregation memory stays O(occupied bins) per level instead
// of O(Samples).
const (
	MCSketchThreshold = 4096
	MCSketchAlpha     = 0.001
)

// MonteCarlo samples the signal-line rule across process variation for
// every DesignRuleLevels level of the technology. Each sample draws
// from its own seeded RNG substream, so a given Seed produces identical
// percentiles however the sample range is split.
//
// MonteCarlo is MonteCarloRows(0, Samples) + MonteCarloFromRows; the
// split pair is the resumable API (checkpointed jobs compute row ranges
// across restarts and still assemble bit-identical percentiles).
func MonteCarlo(tech *ntrs.Technology, spec Spec, v Variation) ([]MCLevelResult, error) {
	if err := v.defaults(); err != nil {
		return nil, err
	}
	jp, err := MonteCarloRows(tech, spec, v, 0, v.Samples)
	if err != nil {
		return nil, err
	}
	return MonteCarloFromRows(tech, spec, v, jp)
}

// mcKernel is the Monte Carlo batch kernel of one sample range. It owns one
// deep-copied technology whose layers and dielectrics are restamped in
// place from the immutable base for every sample, prebuilt per-level
// lines whose stacks alias the clone's dielectrics, one RNG reseeded per
// sample, and one reusable warm-started solver — so sample() touches the
// heap zero times in steady state (TestMCKernelAllocationFree pins it).
//
// Determinism: sample s's row is a pure function of (base, spec,
// v.Seed, s). The RNG substream is keyed on the absolute sample index,
// the restamp always starts from the base values, and the solver hints
// are the per-level nominal temperatures (identical for every sample) —
// no state flows between samples, so any partition of the sample range
// over any number of kernels reproduces the serial stream bit for bit
// (TestMCKernelMatchesRebuild).
type mcKernel struct {
	base   *ntrs.Technology
	spec   Spec
	v      Variation
	levels []int
	// hints[k] is the nominal self-consistent Tm of levels[k]: the warm
	// start for every sample's solve. Hints must stay sample-independent
	// to preserve the determinism contract.
	hints []float64

	tech   *ntrs.Technology
	lines  []*geometry.Line
	src    *mathx.SplitMix64
	rng    *rand.Rand
	solver *core.CoeffSolver
}

// newMCKernel builds a kernel for one sample range. All inputs must already be
// validated/defaulted; hints come from nominalSolutions.
func newMCKernel(base *ntrs.Technology, spec Spec, v Variation, levels []int, hints []float64) (*mcKernel, error) {
	k := &mcKernel{
		base:   base,
		spec:   spec,
		v:      v,
		levels: levels,
		hints:  hints,
		tech:   base.WithGapFill(base.Gap), // deep copy, restamped per sample
		lines:  make([]*geometry.Line, len(levels)),
		src:    &mathx.SplitMix64{},
		solver: core.NewCoeffSolver(),
	}
	k.rng = rand.New(k.src)
	for j, lvl := range levels {
		line, err := k.tech.Line(lvl, spec.ReferenceLength)
		if err != nil {
			return nil, err
		}
		// The line's Below stack references k.tech's ILD/Gap materials, so
		// restamping their conductivities propagates without rebuilding.
		k.lines[j] = line
	}
	return k, nil
}

// lognormal draws exp(σ·N(0,1)), consuming no randomness when σ = 0 so
// zero-spread axes do not perturb the substream of the others.
func (k *mcKernel) lognormal(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return math.Exp(sigma * k.rng.NormFloat64())
}

// sample evaluates Monte Carlo sample s into row (len(levels) jpeaks).
func (k *mcKernel) sample(s int, row []float64) error {
	k.src.Seed(sampleSeed(k.v.Seed, s))
	// Restamp the clone from the base: per layer width (clamped to 98% of
	// pitch), thickness, ILD; then the two dielectric conductivities.
	for i := range k.tech.Layers {
		b, l := &k.base.Layers[i], &k.tech.Layers[i]
		l.Width = b.Width * k.lognormal(k.v.Width)
		if l.Width > 0.98*b.Pitch {
			l.Width = 0.98 * b.Pitch
		}
		l.Thick = b.Thick * k.lognormal(k.v.Thick)
		l.ILD = b.ILD * k.lognormal(k.v.ILD)
	}
	k.tech.Gap.ThermalCond = k.base.Gap.ThermalCond * k.lognormal(k.v.Kd)
	k.tech.ILD.ThermalCond = k.base.ILD.ThermalCond * k.lognormal(k.v.Kd)
	for j, lvl := range k.levels {
		line := k.lines[j]
		layer := &k.tech.Layers[lvl-1]
		line.Width = layer.Width
		line.Thick = layer.Thick
		// Below mirrors ntrs.StackBelow: pairs of (lower ILD, lower metal
		// thickness as gap fill), capped by this level's own ILD.
		below := line.Below
		for i := 0; i < lvl-1; i++ {
			below[2*i].Thickness = k.tech.Layers[i].ILD
			below[2*i+1].Thickness = k.tech.Layers[i].Thick
		}
		below[len(below)-1].Thickness = layer.ILD
		k.solver.P = core.CoeffProblem{
			Metal: k.tech.Metal,
			Coeff: k.spec.Model.SelfHeatingCoeff(line),
			R:     k.spec.SignalDutyCycle,
			J0:    k.spec.J0,
			Tref:  k.spec.Tref,
		}
		sol, err := k.solver.Solve(k.hints[j])
		if err != nil {
			return fmt.Errorf("rules: MC sample %d level %d: %w", s, lvl, err)
		}
		row[j] = sol.Jpeak
	}
	return nil
}

// nominalSolutions solves the unperturbed rule once per design level —
// the shared source of both the reported Nominal limits and the kernels'
// warm-start hints.
func nominalSolutions(tech *ntrs.Technology, spec Spec, levels []int) ([]core.Solution, error) {
	noms := make([]core.Solution, len(levels))
	for k, lvl := range levels {
		sol, err := solveSignal(tech, lvl, spec)
		if err != nil {
			return nil, err
		}
		noms[k] = sol
	}
	return noms, nil
}

// MonteCarloRows evaluates Monte Carlo samples [lo, hi) and returns one
// jpeak row per sample (jp[s-lo][k] is sample s's jpeak for
// DesignRuleLevels[k]). Row s is a pure function of (tech, spec,
// Variation.Seed, s) — each sample derives its own RNG substream from
// the absolute sample index — so any partition of [0, Samples) into
// ranges, evaluated in any order, on any number of goroutines, across
// any number of process restarts, reassembles into the exact matrix a
// single uninterrupted call produces. This is the chunk kernel of the
// resumable Monte Carlo job runner; ranges are the unit of parallelism.
//
// One mcKernel runs the range serially and all rows share one backing
// arena, so a call performs two row allocations regardless of sample
// count and the kernel none at all.
func MonteCarloRows(tech *ntrs.Technology, spec Spec, v Variation, lo, hi int) ([][]float64, error) {
	if err := v.defaults(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi > v.Samples || lo > hi {
		return nil, fmt.Errorf("%w: sample range [%d, %d) outside [0, %d)", ErrInvalid, lo, hi, v.Samples)
	}
	levels := designRuleLevels(tech)
	noms, err := nominalSolutions(tech, spec, levels)
	if err != nil {
		return nil, err
	}
	n := hi - lo
	jp := make([][]float64, n)
	if n == 0 {
		return jp, nil
	}
	arena := make([]float64, n*len(levels))
	for i := range jp {
		jp[i] = arena[i*len(levels) : (i+1)*len(levels) : (i+1)*len(levels)]
	}
	hints := make([]float64, len(levels))
	for k := range noms {
		hints[k] = noms[k].Tm
	}
	k, err := newMCKernel(tech, spec, v, levels, hints)
	if err != nil {
		return nil, err
	}
	for s := lo; s < hi; s++ {
		if err := k.sample(s, jp[s-lo]); err != nil {
			return nil, err
		}
	}
	return jp, nil
}

// MonteCarloFromRows assembles the per-level percentile summary from a
// complete sample matrix (jp[s][k] as produced by MonteCarloRows over
// the full [0, Samples) range, ranges concatenated in index order). The
// result depends only on (tech, spec, v, jp): below MCSketchThreshold
// samples each level's column is sorted and interpolated exactly; at or
// above it the column streams through a quantile sketch with relative
// accuracy MCSketchAlpha.
func MonteCarloFromRows(tech *ntrs.Technology, spec Spec, v Variation, jp [][]float64) ([]MCLevelResult, error) {
	if err := v.defaults(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if len(jp) != v.Samples {
		return nil, fmt.Errorf("%w: %d rows, want Samples=%d", ErrInvalid, len(jp), v.Samples)
	}
	levels := designRuleLevels(tech)
	for s, row := range jp {
		if len(row) != len(levels) {
			return nil, fmt.Errorf("%w: row %d has %d levels, want %d", ErrInvalid, s, len(row), len(levels))
		}
	}
	noms, err := nominalSolutions(tech, spec, levels)
	if err != nil {
		return nil, err
	}

	useSketch := v.Samples >= MCSketchThreshold
	var js []float64 // one column buffer reused across levels
	if !useSketch {
		js = make([]float64, v.Samples)
	}
	out := make([]MCLevelResult, 0, len(levels))
	for k, lvl := range levels {
		r := MCLevelResult{Level: lvl, Nominal: noms[k].Jpeak}
		if useSketch {
			sk := mathx.NewQuantileSketch(MCSketchAlpha)
			for s := range jp {
				sk.Add(jp[s][k])
			}
			r.P1, r.P50, r.P99 = sk.Quantile(0.01), sk.Quantile(0.50), sk.Quantile(0.99)
		} else {
			for s := range jp {
				js[s] = jp[s][k]
			}
			sort.Float64s(js)
			r.P1, r.P50, r.P99 = percentile(js, 0.01), percentile(js, 0.50), percentile(js, 0.99)
		}
		r.GuardBand = r.Nominal / r.P1
		out = append(out, r)
	}
	return out, nil
}

// designRuleLevels mirrors exp.DesignRuleLevels without importing exp
// (avoiding a cycle): the top four levels of an 8-level node, two
// otherwise.
func designRuleLevels(tech *ntrs.Technology) []int {
	if tech.NumLevels() >= 8 {
		return tech.TopLevels(4)
	}
	return tech.TopLevels(2)
}

// solveSignal computes the signal-line rule with the spec's parameters.
func solveSignal(tech *ntrs.Technology, level int, spec Spec) (core.Solution, error) {
	line, err := tech.Line(level, spec.ReferenceLength)
	if err != nil {
		return core.Solution{}, err
	}
	return core.Solve(core.Problem{
		Line:  line,
		Model: *spec.Model,
		R:     spec.SignalDutyCycle,
		J0:    spec.J0,
		Tref:  spec.Tref,
	})
}

// sampleSeed derives the RNG substream seed for one Monte Carlo sample by
// splitmix64-mixing the user seed with the sample index (mathx.SeedMix).
// Each sample's draws are a pure function of (Seed, s), which is what
// makes any partition of the sample range order-independent: serial and
// parallel evaluation of ranges consume identical streams.
func sampleSeed(seed int64, s int) int64 {
	return mathx.SeedMix(seed, s)
}

// percentile returns the pth quantile (0..1) of sorted data by linear
// interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
