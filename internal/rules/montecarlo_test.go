package rules

import (
	"context"
	"math"
	"testing"

	"dsmtherm/internal/mathx"
	"dsmtherm/internal/ntrs"
)

func defaultVariation() Variation {
	return Variation{Width: 0.05, Thick: 0.05, ILD: 0.05, Kd: 0.1, Samples: 150, Seed: 7}
}

func TestMonteCarloBasics(t *testing.T) {
	res, err := MonteCarlo(ntrs.N250(), Spec{}, defaultVariation())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 { // top two levels of the 6-level node
		t.Fatalf("got %d level results", len(res))
	}
	for _, r := range res {
		if !(r.P1 < r.P50 && r.P50 < r.P99) {
			t.Errorf("M%d: percentile ordering broken: %v %v %v", r.Level, r.P1, r.P50, r.P99)
		}
		// Median near nominal (small symmetric-ish spreads).
		if math.Abs(r.P50-r.Nominal)/r.Nominal > 0.05 {
			t.Errorf("M%d: median %v far from nominal %v", r.Level, r.P50, r.Nominal)
		}
		// Guard band is a modest penalty > 1.
		if r.GuardBand <= 1 || r.GuardBand > 1.5 {
			t.Errorf("M%d: guard band %v outside (1, 1.5]", r.Level, r.GuardBand)
		}
	}
}

func TestMonteCarloReproducible(t *testing.T) {
	a, err := MonteCarlo(ntrs.N250(), Spec{}, defaultVariation())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(ntrs.N250(), Spec{}, defaultVariation())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].P1 != b[i].P1 || a[i].P99 != b[i].P99 {
			t.Error("same seed must reproduce identical percentiles")
		}
	}
	v2 := defaultVariation()
	v2.Seed = 99
	c, err := MonteCarlo(ntrs.N250(), Spec{}, v2)
	if err != nil {
		t.Fatal(err)
	}
	if c[0].P1 == a[0].P1 {
		t.Error("different seeds should differ")
	}
}

// TestMonteCarloParallelEqualsSerial locks the substream contract: the
// sample range cut into chunks, each chunk evaluated on its own
// goroutine at 1, 2 and 8 workers, reassembles into bit-identical
// percentiles to one serial MonteCarlo call.
func TestMonteCarloParallelEqualsSerial(t *testing.T) {
	v := defaultVariation()
	serial, err := MonteCarlo(ntrs.N250(), Spec{}, v)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 32
	nChunks := (v.Samples + chunk - 1) / chunk
	for _, w := range []int{1, 2, 8} {
		parts := make([][][]float64, nChunks)
		err := mathx.ForEach(context.Background(), nChunks, w, func(ctx context.Context, c int) error {
			var err error
			parts[c], err = MonteCarloRows(ntrs.N250(), Spec{}, v, c*chunk, min((c+1)*chunk, v.Samples))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		var jp [][]float64
		for _, p := range parts {
			jp = append(jp, p...)
		}
		res, err := MonteCarloFromRows(ntrs.N250(), Spec{}, v, jp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			a, b := serial[i], res[i]
			if a.P1 != b.P1 || a.P50 != b.P50 || a.P99 != b.P99 ||
				a.Nominal != b.Nominal || a.GuardBand != b.GuardBand {
				t.Fatalf("M%d: workers=%d result %+v differs from serial %+v", a.Level, w, b, a)
			}
		}
	}
}

func TestMonteCarloSpreadScalesWithVariation(t *testing.T) {
	tight := defaultVariation()
	tight.Width, tight.Thick, tight.ILD, tight.Kd = 0.01, 0.01, 0.01, 0.02
	loose := defaultVariation()
	loose.Width, loose.Thick, loose.ILD, loose.Kd = 0.1, 0.1, 0.1, 0.2
	rt, err := MonteCarlo(ntrs.N250(), Spec{}, tight)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := MonteCarlo(ntrs.N250(), Spec{}, loose)
	if err != nil {
		t.Fatal(err)
	}
	spreadT := rt[0].P99/rt[0].P1 - 1
	spreadL := rl[0].P99/rl[0].P1 - 1
	if spreadL <= spreadT {
		t.Errorf("looser process must spread more: %v vs %v", spreadL, spreadT)
	}
	if rl[0].GuardBand <= rt[0].GuardBand {
		t.Error("looser process needs a larger guard band")
	}
}

func TestMonteCarloZeroVariation(t *testing.T) {
	v := Variation{Samples: 20, Seed: 3} // all sigmas zero
	res, err := MonteCarlo(ntrs.N250(), Spec{}, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if math.Abs(r.P1-r.P99) > 1e-9*r.P50 {
			t.Error("zero variation must collapse the distribution")
		}
		if math.Abs(r.GuardBand-1) > 1e-9 {
			t.Errorf("guard band = %v, want 1", r.GuardBand)
		}
	}
}

func TestMonteCarloValidation(t *testing.T) {
	if _, err := MonteCarlo(ntrs.N250(), Spec{}, Variation{Width: -0.1}); err == nil {
		t.Error("negative variation must fail")
	}
	if _, err := MonteCarlo(ntrs.N250(), Spec{}, Variation{Width: 0.5}); err == nil {
		t.Error("huge variation must fail")
	}
	if _, err := MonteCarlo(ntrs.N250(), Spec{}, Variation{Samples: 5}); err == nil {
		t.Error("tiny sample count must fail")
	}
	if _, err := MonteCarlo(ntrs.N250(), Spec{SignalDutyCycle: 2}, defaultVariation()); err == nil {
		t.Error("bad spec must fail")
	}
}

func TestPercentileHelper(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	if percentile(data, 0) != 1 || percentile(data, 1) != 5 {
		t.Error("endpoints")
	}
	if percentile(data, 0.5) != 3 {
		t.Error("median")
	}
	if got := percentile(data, 0.25); got != 2 {
		t.Errorf("q1 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty data must be NaN")
	}
}

// TestMonteCarloRowsChunkedEqualsOneShot locks the resumption invariant
// the job subsystem leans on: evaluating the sample range in arbitrary
// uneven chunks and reassembling in index order yields the exact
// percentiles of one uninterrupted MonteCarlo call, bit for bit.
func TestMonteCarloRowsChunkedEqualsOneShot(t *testing.T) {
	v := defaultVariation()
	v.Samples = 60
	tech := ntrs.N250()
	whole, err := MonteCarlo(tech, Spec{}, v)
	if err != nil {
		t.Fatal(err)
	}
	// Uneven chunk grid, evaluated out of order.
	bounds := []int{0, 7, 8, 31, 60}
	rows := make([][][]float64, len(bounds)-1)
	for _, c := range []int{2, 0, 3, 1} {
		r, err := MonteCarloRows(tech, Spec{}, v, bounds[c], bounds[c+1])
		if err != nil {
			t.Fatal(err)
		}
		rows[c] = r
	}
	var jp [][]float64
	for _, r := range rows {
		jp = append(jp, r...)
	}
	got, err := MonteCarloFromRows(tech, Spec{}, v, jp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(whole) {
		t.Fatalf("level count %d != %d", len(got), len(whole))
	}
	for i := range got {
		if got[i] != whole[i] {
			t.Fatalf("level %d: chunked %+v != one-shot %+v", got[i].Level, got[i], whole[i])
		}
	}
}

// TestMonteCarloRowsValidation pins the range checks.
func TestMonteCarloRowsValidation(t *testing.T) {
	v := defaultVariation()
	tech := ntrs.N250()
	for _, c := range []struct{ lo, hi int }{{-1, 10}, {0, v.Samples + 1}, {20, 10}} {
		if _, err := MonteCarloRows(tech, Spec{}, v, c.lo, c.hi); err == nil {
			t.Errorf("range [%d, %d): no error", c.lo, c.hi)
		}
	}
	if _, err := MonteCarloFromRows(tech, Spec{}, v, make([][]float64, 3)); err == nil {
		t.Error("short row matrix: no error")
	}
}
