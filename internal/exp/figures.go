package exp

import (
	"fmt"
	"math"

	"dsmtherm/internal/core"
	"dsmtherm/internal/material"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/plot"
	"dsmtherm/internal/repeater"
)

// Figure rendering: the figure-class experiments as actual plots, written
// by `cmd/repro -svg <dir>`. Each entry regenerates the corresponding
// paper figure's axes and series from the same computations the tables
// use.

// Figure is a named renderable figure.
type Figure struct {
	// Name is the output file stem ("fig2_jpeak").
	Name string
	Plot *plot.Plot
}

// Figures computes every renderable figure. The transient (fig7) entries
// cost a few hundred milliseconds each; everything else is instant.
func Figures() ([]Figure, error) {
	var out []Figure
	for _, f := range []func() ([]Figure, error){fig2Figures, fig3Figures, fig5Figures, fig7Figures} {
		fs, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

func fig2Figures() ([]Figure, error) {
	rs := core.Fig2DutyCycles(41)
	pts, err := core.SweepDutyCycle(Fig2Problem(0.1), rs)
	if err != nil {
		return nil, err
	}
	var xs, jp, tm, naiveA, naiveB []float64
	for _, p := range pts {
		xs = append(xs, p.X)
		jp = append(jp, phys.ToAPerCm2(p.Jpeak))
		tm = append(tm, phys.KToC(p.Tm))
		naiveA = append(naiveA, phys.ToAPerCm2(p.EMOnlyJpeak))
		// Dotted line (b): jpeak from the r = 1 RMS capability scaled by
		// 1/sqrt(r).
		naiveB = append(naiveB, phys.ToAPerCm2(pts[len(pts)-1].Jrms/math.Sqrt(p.X)))
	}
	return []Figure{
		{
			Name: "fig2_jpeak",
			Plot: &plot.Plot{
				Title:  "Fig. 2: self-consistent jpeak vs duty cycle (Cu, j0 = 0.6 MA/cm2)",
				XLabel: "duty cycle r",
				YLabel: "jpeak [A/cm2]",
				LogX:   true, LogY: true,
				Series: []plot.Series{
					{Name: "self-consistent", X: xs, Y: jp},
					{Name: "(a) j0/r", X: xs, Y: naiveA},
					{Name: "(b) jrms/sqrt(r)", X: xs, Y: naiveB},
				},
			},
		},
		{
			Name: "fig2_tm",
			Plot: &plot.Plot{
				Title:  "Fig. 2: self-consistent metal temperature vs duty cycle",
				XLabel: "duty cycle r",
				YLabel: "Tm [degC]",
				LogX:   true,
				Series: []plot.Series{{Name: "Tm", X: xs, Y: tm}},
			},
		},
	}, nil
}

func fig3Figures() ([]Figure, error) {
	rs := core.Fig2DutyCycles(41)
	var jpSeries, tmSeries []plot.Series
	for _, j0 := range []float64{0.6, 1.2, 1.8} {
		p := Fig2Problem(0.1)
		p.J0 = phys.MAPerCm2(j0)
		pts, err := core.SweepDutyCycle(p, rs)
		if err != nil {
			return nil, err
		}
		var xs, jp, tm []float64
		for _, q := range pts {
			xs = append(xs, q.X)
			jp = append(jp, phys.ToAPerCm2(q.Jpeak))
			tm = append(tm, phys.KToC(q.Tm))
		}
		name := fmt.Sprintf("j0 = %.1f MA/cm2", j0)
		jpSeries = append(jpSeries, plot.Series{Name: name, X: xs, Y: jp})
		tmSeries = append(tmSeries, plot.Series{Name: name, X: xs, Y: tm})
	}
	return []Figure{
		{
			Name: "fig3_jpeak",
			Plot: &plot.Plot{
				Title:  "Fig. 3: jpeak vs duty cycle for three EM budgets",
				XLabel: "duty cycle r",
				YLabel: "jpeak [A/cm2]",
				LogX:   true, LogY: true,
				Series: jpSeries,
			},
		},
		{
			Name: "fig3_tm",
			Plot: &plot.Plot{
				Title:  "Fig. 3: Tm vs duty cycle for three EM budgets",
				XLabel: "duty cycle r",
				YLabel: "Tm [degC]",
				LogX:   true,
				Series: tmSeries,
			},
		},
	}, nil
}

func fig5Figures() ([]Figure, error) {
	widths := []float64{0.35, 0.5, 0.7, 1.0, 1.5, 2.0, 2.6, 3.3}
	var ox, hsq []float64
	for _, w := range widths {
		thOx, err := Fig5Impedance(w, &material.Oxide)
		if err != nil {
			return nil, err
		}
		thHSQ, err := Fig5Impedance(w, &material.HSQ)
		if err != nil {
			return nil, err
		}
		ox = append(ox, thOx)
		hsq = append(hsq, thHSQ)
	}
	return []Figure{{
		Name: "fig5_impedance",
		Plot: &plot.Plot{
			Title:  "Fig. 5: thermal impedance vs line width (level-1 AlCu, L = 1 mm)",
			XLabel: "line width [um]",
			YLabel: "theta [K/W]",
			Series: []plot.Series{
				{Name: "oxide", X: widths, Y: ox},
				{Name: "HSQ gap fill", X: widths, Y: hsq},
			},
		},
	}}, nil
}

func fig7Figures() ([]Figure, error) {
	var series []plot.Series
	for _, tech := range ntrs.Nodes() {
		lvl := tech.NumLevels()
		m, err := repeater.Simulate(tech, lvl, repeater.SimOpts{})
		if err != nil {
			return nil, err
		}
		w, err := m.Wave.Resample(200)
		if err != nil {
			return nil, err
		}
		ts, is := w.Samples()
		period := w.Period()
		xs := make([]float64, len(ts))
		ys := make([]float64, len(is))
		for i := range ts {
			xs[i] = ts[i] / period
			ys[i] = is[i] * 1e3
		}
		series = append(series, plot.Series{
			Name: fmt.Sprintf("%s M%d", tech.Name, lvl),
			X:    xs, Y: ys,
		})
	}
	return []Figure{{
		Name: "fig7_waveform",
		Plot: &plot.Plot{
			Title:  "Fig. 7: line current at the repeater output (one clock period)",
			XLabel: "t / T",
			YLabel: "I [mA]",
			Series: series,
		},
	}}, nil
}
