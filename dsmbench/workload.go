package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/netcheck"
	"dsmtherm/internal/server"
)

// Everything a run sends is a pure function of (workload, seed): the
// /v1/rules key sequence, the open-loop schedule, every chip design and
// every bulk job. The daemon receives only these generated inputs.

// Workload names.
const (
	wlRulesOpenLoop = "rules_openloop"
	wlChipSignoff   = "chip_signoff"
	wlRulesBulk     = "rules_under_bulk"
)

var workloads = []string{wlRulesOpenLoop, wlChipSignoff, wlRulesBulk}

// Fixed workload shape. The open-loop rate is a constant of the
// workload (about a quarter of rules_capacity_rps measured on the
// commit that introduced this benchmark); it is never derived at run
// time, so two commits are always offered the same load.
const (
	rulesRate     = 1600.0 // /v1/rules arrivals per second, rules_openloop
	bulkRulesRate = 200.0  // /v1/rules arrivals per second beside the bulk jobs
	rulesZipfS    = 1.1    // Zipf exponent over the rules key space

	chipNx, chipNy  = 64, 64 // sync chipcheck grid (= daemon -chip-max-nodes)
	chipLoads       = 32     // point loads per chipcheck on top of the uniform draw
	netSegments     = 4000   // segments per /v1/netcheck design (< -max-segments)
	netPerNet       = 4      // segments per net
	lifetimeClasses = 8      // census classes binned from a chipcheck
	lifetimeSamples = 50000  // Monte Carlo samples per /v1/lifetime (≤ -lifetime-max-samples)

	bulkNx, bulkNy = 128, 96 // bulk chipcheck job grid (above the sync cap)
	bulkLoads      = 64
)

// rulesKey is one point of the /v1/rules parameter space.
type rulesKey struct {
	Node  string
	Level int
	Duty  float64
	J0MA  float64
	Gap   string
	TrefC float64
}

var (
	ruleNodes = []struct {
		node   string
		levels int
	}{{"0.25", 6}, {"0.10", 8}}
	ruleDuties = dutyGrid(32)
	ruleJ0s    = []float64{0.6, 1.0, 1.8, 3.0}
	ruleGaps   = []string{"", "hsq", "polyimide"}
	ruleTrefs  = []float64{85, 100, 125}
)

// dutyGrid spaces n duty cycles logarithmically over [0.01, 1].
func dutyGrid(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.01 * math.Pow(100, float64(i)/float64(n-1))
	}
	out[n-1] = 1
	return out
}

// keySpace is the full /v1/rules parameter grid: 14 (node, level) pairs
// × 32 duty cycles × 4 EM budgets × 3 gap fills × 3 reference corners
// = 16128 keys, about 4× the daemon's default 4096-entry cache, so a
// Zipf draw over it produces hits, misses and evictions.
var keySpace = sync.OnceValue(func() []rulesKey {
	var ks []rulesKey
	for _, n := range ruleNodes {
		for lv := 1; lv <= n.levels; lv++ {
			for _, d := range ruleDuties {
				for _, j := range ruleJ0s {
					for _, g := range ruleGaps {
						for _, t := range ruleTrefs {
							ks = append(ks, rulesKey{n.node, lv, d, j, g, t})
						}
					}
				}
			}
		}
	}
	return ks
})

func (k rulesKey) request() server.RulesRequest {
	d, j, t := k.Duty, k.J0MA, k.TrefC
	return server.RulesRequest{Node: k.Node, Level: k.Level, DutyCycle: &d, J0MA: &j, Gap: k.Gap, TrefC: &t}
}

func (k rulesKey) body() []byte {
	b, err := json.Marshal(k.request())
	if err != nil {
		panic(err)
	}
	return b
}

// seedFor derives an independent RNG seed for one stream of a run.
func seedFor(seed int64, stream string, index int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(index+1)*0xbf58476d1ce4e5b9
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return int64(h & math.MaxInt64)
}

// rulesStream draws key indices from a seeded Zipf over a seeded
// permutation of the key space (so which keys are hot depends on the
// seed). Both phases of a run continue one stream.
type rulesStream struct {
	mu   sync.Mutex
	perm []int
	zipf *rand.Zipf
}

func newRulesStream(seed int64) *rulesStream {
	rng := rand.New(rand.NewSource(seedFor(seed, "rules", 0)))
	n := len(keySpace())
	return &rulesStream{perm: rng.Perm(n), zipf: rand.NewZipf(rng, rulesZipfS, 1, uint64(n-1))}
}

func (s *rulesStream) next() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perm[s.zipf.Uint64()]
}

// openLoopPlan is the open-loop phase: request i is due at i/rate after
// the phase starts and asks for key Keys[i].
type openLoopPlan struct {
	Rate float64
	Keys []int
}

func (p *openLoopPlan) due(i int) time.Duration {
	return time.Duration(float64(i) / p.Rate * float64(time.Second))
}

func newOpenLoopPlan(s *rulesStream, rate float64, d time.Duration) *openLoopPlan {
	n := int(rate * d.Seconds())
	p := &openLoopPlan{Rate: rate, Keys: make([]int, n)}
	for i := range p.Keys {
		p.Keys[i] = s.next()
	}
	return p
}

// chipRound is one netcheck → chipcheck → lifetime signoff round. The
// lifetime census is binned from the round's chipcheck response, so it
// is built after the chipcheck call returns.
type chipRound struct {
	Design netcheck.DesignFile
	Chip   chipcheck.Params
	Seed   int64
}

func newChipRound(seed int64, r int) chipRound {
	rng := rand.New(rand.NewSource(seedFor(seed, "chip", r)))
	return chipRound{
		Design: netDesign(rng),
		Chip:   chipParams(rng, chipNx, chipNy, chipLoads, true),
		Seed:   rng.Int63n(1<<40) + 1,
	}
}

// netDesign draws a netcheck design: netSegments segments in nets of
// netPerNet, on random levels with random lengths, widths and current
// waveforms well inside what the rules deck can sign off.
func netDesign(rng *rand.Rand) netcheck.DesignFile {
	node, levels := "0.25", 6
	if rng.Intn(2) == 1 {
		node, levels = "0.10", 8
	}
	df := netcheck.DesignFile{Node: node, J0MA: []float64{1.0, 1.8}[rng.Intn(2)]}
	widths := []float64{1, 2, 4}
	for i := 0; i < netSegments; i++ {
		var w netcheck.WaveformSpec
		switch rng.Intn(3) {
		case 0:
			w = netcheck.WaveformSpec{Kind: "dc", Amps: 1e-5 + 4e-4*rng.Float64()}
		case 1:
			w = netcheck.WaveformSpec{Kind: "unipolar", PeakMA: 0.2 + 2*rng.Float64(), DutyCycle: 0.05 + 0.45*rng.Float64()}
		default:
			w = netcheck.WaveformSpec{Kind: "bipolar", PeakMA: 0.2 + 3*rng.Float64(), DutyCycle: 0.05 + 0.45*rng.Float64()}
		}
		df.Segments = append(df.Segments, netcheck.SegmentSpec{
			Net:           fmt.Sprintf("n%d", i/netPerNet),
			Name:          fmt.Sprintf("s%d", i),
			Level:         1 + rng.Intn(levels),
			WidthMultiple: widths[rng.Intn(len(widths))],
			LengthUm:      20 + 3000*rng.Float64(),
			Waveform:      w,
		})
	}
	return df
}

// chipParams draws a power grid: pad ring, a uniform block draw and
// point loads at random nodes. The total current is fixed by the grid
// size, so every draw costs the solver about the same; only where the
// current goes varies.
func chipParams(rng *rand.Rand, nx, ny, loads int, segments bool) chipcheck.Params {
	uniform := 1.5 * float64(nx*ny) / 4096
	p := chipcheck.Params{
		Node: "0.10", Nx: nx, Ny: ny, PadRing: true,
		UniformLoadA:    &uniform,
		IncludeSegments: segments,
	}
	for i := 0; i < loads; i++ {
		p.Loads = append(p.Loads, chipcheck.LoadSpec{
			I: 1 + rng.Intn(nx-2), J: 1 + rng.Intn(ny-2),
			Amps: 0.02,
		})
	}
	return p
}

// bulkJob is the k-th bulk chipcheck job of a rules_under_bulk run.
func bulkJob(seed int64, k int) chipcheck.Params {
	rng := rand.New(rand.NewSource(seedFor(seed, "bulk", k)))
	return chipParams(rng, bulkNx, bulkNy, bulkLoads, false)
}

// censusFromSegments bins a chipcheck verdict stream into a lifetime
// census: the active (pass/fail) segments sorted by current density and
// cut into lifetimeClasses equal-count classes, each carried at its
// worst (highest) density and temperature. Sampling cost is linear in
// the class count, so the census stays small.
func censusFromSegments(segs []chipcheck.Verdict, seed int64) lifetime.Params {
	var active []chipcheck.Verdict
	for _, v := range segs {
		if v.Code == chipcheck.CodePass || v.Code == chipcheck.CodeFail {
			active = append(active, v)
		}
	}
	sort.SliceStable(active, func(a, b int) bool { return active[a].JMA < active[b].JMA })
	p := lifetime.Params{Samples: lifetimeSamples, Seed: seed, Rho: 0.3}
	for c := 0; c < lifetimeClasses; c++ {
		lo, hi := c*len(active)/lifetimeClasses, (c+1)*len(active)/lifetimeClasses
		if lo == hi {
			continue
		}
		class := lifetime.SegmentSpec{Count: hi - lo}
		for _, v := range active[lo:hi] {
			class.JMA = max(class.JMA, roundSig(v.JMA, 3))
			class.TempC = max(class.TempC, math.Ceil(v.TmC*100)/100)
		}
		p.Segments = append(p.Segments, class)
	}
	return p
}

func roundSig(x float64, digits int) float64 {
	if x == 0 {
		return 0
	}
	e := math.Pow(10, float64(digits)-math.Ceil(math.Log10(math.Abs(x))))
	return math.Round(x*e) / e
}
