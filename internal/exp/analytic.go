package exp

import (
	"fmt"
	"math"

	"dsmtherm/internal/core"
	"dsmtherm/internal/geometry"
	"dsmtherm/internal/material"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/thermal"
	"dsmtherm/internal/waveform"
)

// Fig2Line returns the Fig. 2/3 caption geometry: Cu, Wm = 3 µm,
// tm = 0.5 µm over 3 µm of oxide.
func Fig2Line() *geometry.Line {
	return &geometry.Line{
		Metal:  &material.Cu,
		Width:  phys.Microns(3),
		Thick:  phys.Microns(0.5),
		Length: phys.Microns(1000),
		Below:  geometry.Stack{{Material: &material.Oxide, Thickness: phys.Microns(3)}},
	}
}

// Fig2Problem returns the Fig. 2 self-consistent problem at duty cycle r.
func Fig2Problem(r float64) core.Problem {
	return core.Problem{
		Line:  Fig2Line(),
		Model: thermal.Quasi1D(),
		R:     r,
		J0:    phys.MAPerCm2(0.6),
	}
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Paper: "Fig. 1 / Eqs. 4–5",
		Title: "unipolar pulse current-density identities",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Paper: "Fig. 2",
		Title: "self-consistent Tm and jpeak vs duty cycle (Cu, j0 = 0.6 MA/cm²)",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Paper: "Fig. 3",
		Title: "self-consistent solutions vs duty cycle for j0 ∈ {0.6, 1.2, 1.8} MA/cm²",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "tab1",
		Paper: "Table 1",
		Title: "thermal conductivity of intra-level dielectrics",
		Run:   runTab1,
	})
	register(Experiment{
		ID:    "tab2",
		Paper: "Table 2",
		Title: "max jpeak (MA/cm²), Cu, j0 = 0.6 MA/cm², signal (r=0.1) and power (r=1.0) lines",
		Run:   func() (*Table, error) { return runDesignRuleTable("tab2", &material.Cu, 0.6) },
	})
	register(Experiment{
		ID:    "tab3",
		Paper: "Table 3",
		Title: "max jpeak (MA/cm²), Cu, j0 = 1.8 MA/cm² (realistic Cu EM budget)",
		Run:   func() (*Table, error) { return runDesignRuleTable("tab3", &material.Cu, 1.8) },
	})
	register(Experiment{
		ID:    "tab4",
		Paper: "Table 4",
		Title: "max jpeak (MA/cm²), AlCu, j0 = 0.6 MA/cm² (Cu-vs-AlCu comparison)",
		Run:   func() (*Table, error) { return runDesignRuleTable("tab4", &material.AlCu, 0.6) },
	})
	register(Experiment{
		ID:    "tab8",
		Paper: "Table 8",
		Title: "reconstructed NTRS interconnect technology files",
		Run:   runTab8,
	})
}

func runFig1() (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "unipolar pulse identities: javg = r·jpeak (Eq. 4), jrms = sqrt(r)·jpeak (Eq. 5)",
		Columns: []string{"r", "javg/jpeak", "Eq.4 r", "jrms/jpeak", "Eq.5 sqrt(r)", "reff"},
	}
	for _, r := range []float64{1e-4, 1e-3, 1e-2, 0.1, 0.12, 0.5, 1} {
		u, err := waveform.NewUnipolarPulse(1, 1e-9, r)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.4g", r),
			fmt.Sprintf("%.6g", u.Avg()/u.Peak()),
			fmt.Sprintf("%.6g", r),
			fmt.Sprintf("%.6g", u.RMS()/u.Peak()),
			fmt.Sprintf("%.6g", math.Sqrt(r)),
			fmt.Sprintf("%.6g", waveform.EffectiveDutyCycle(u)),
		)
	}
	t.Note("identities hold to machine precision; reff = javg²/jrms² recovers r exactly")
	return t, nil
}

func runFig2() (*Table, error) {
	t := &Table{
		ID:    "fig2",
		Title: "self-consistent Tm and jpeak vs duty cycle r (Fig. 2 conditions)",
		Columns: []string{"r", "Tm[degC]", "jpeak[MA/cm2]", "jrms[MA/cm2]",
			"naive j0/r", "derating", "paper penalty x"},
	}
	rs := core.Fig2DutyCycles(13)
	pts, err := core.SweepDutyCycle(Fig2Problem(0.1), rs)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		t.AddRow(
			fmt.Sprintf("%.2e", p.X),
			fmt.Sprintf("%.1f", phys.KToC(p.Tm)),
			fmt.Sprintf("%.3g", phys.ToMAPerCm2(p.Jpeak)),
			fmt.Sprintf("%.3g", phys.ToMAPerCm2(p.Jrms)),
			fmt.Sprintf("%.3g", phys.ToMAPerCm2(p.EMOnlyJpeak)),
			fmt.Sprintf("%.3f", p.DeratingVsNaive),
			fmt.Sprintf("%.2f", p.PaperLifetimePenalty()),
		)
	}
	// The §3.1 headline checks at r = 0.01.
	sol, err := core.Solve(Fig2Problem(0.01))
	if err != nil {
		return nil, err
	}
	t.Note("paper: at r=1e-2 the naive/self-consistent jpeak ratio is 'nearly 2x'; measured %.2fx",
		1/sol.DeratingVsNaive)
	t.Note("paper: naive design costs 'nearly three times' the lifetime; measured %.2fx (j^-2 form)",
		sol.PaperLifetimePenalty())
	t.Note("paper Fig.2 Tm range 100 degC (r=1) to ~235 degC (r=1e-4); measured %.0f to %.0f degC",
		phys.KToC(pts[len(pts)-1].Tm), phys.KToC(pts[0].Tm))
	return t, nil
}

func runFig3() (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "Tm and jpeak vs r for three EM budgets j0",
		Columns: []string{"r", "j0[MA/cm2]", "Tm[degC]", "jpeak[MA/cm2]"},
	}
	rs := core.Fig2DutyCycles(7)
	j0s := []float64{0.6, 1.2, 1.8}
	for _, r := range rs {
		for _, j0 := range j0s {
			p := Fig2Problem(r)
			p.J0 = phys.MAPerCm2(j0)
			sol, err := core.Solve(p)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				fmt.Sprintf("%.2e", r),
				fmt.Sprintf("%.1f", j0),
				fmt.Sprintf("%.1f", phys.KToC(sol.Tm)),
				fmt.Sprintf("%.3g", phys.ToMAPerCm2(sol.Jpeak)),
			)
		}
	}
	gain := func(r float64) float64 {
		a := Fig2Problem(r)
		a.J0 = phys.MAPerCm2(0.6)
		b := Fig2Problem(r)
		b.J0 = phys.MAPerCm2(1.8)
		sa, err := core.Solve(a)
		if err != nil {
			return math.NaN()
		}
		sb, err := core.Solve(b)
		if err != nil {
			return math.NaN()
		}
		return sb.Jpeak / sa.Jpeak
	}
	t.Note("paper: 'jo becomes increasingly ineffective in increasing jpeak as r decreases'")
	t.Note("measured jpeak gain for 3x j0: %.2fx at r=1, %.2fx at r=1e-4", gain(1), gain(1e-4))
	return t, nil
}

func runTab1() (*Table, error) {
	t := &Table{
		ID:      "tab1",
		Title:   "dielectric thermal conductivities (paper values carried verbatim)",
		Columns: []string{"material", "K[W/m/K]", "rel. permittivity", "paper K"},
	}
	paper := map[string]string{"Oxide": "1.15", "HSQ": "0.6", "Polyimide": "0.25"}
	for _, d := range material.PaperDielectrics() {
		t.AddRow(d.Name, fmt.Sprintf("%.2f", d.ThermalCond),
			fmt.Sprintf("%.1f", d.RelPermittivity), paper[d.Name])
	}
	t.Note("oxide value measured by Jin et al. (ref. 19); HSQ and polyimide from Goodson (ref. 20)")
	return t, nil
}

// DesignRuleLevels returns the top metallization levels the paper tabulates
// per node: two for the 0.25 µm node, four for the 0.1 µm node.
func DesignRuleLevels(tech *ntrs.Technology) []int {
	if tech.NumLevels() >= 8 {
		return tech.TopLevels(4)
	}
	return tech.TopLevels(2)
}

// SolveRule computes the self-consistent limit for one technology level
// with the quasi-2-D model.
func SolveRule(tech *ntrs.Technology, level int, r, j0MA float64) (core.Solution, error) {
	line, err := tech.Line(level, phys.Microns(2000))
	if err != nil {
		return core.Solution{}, err
	}
	return core.Solve(core.Problem{
		Line:  line,
		Model: thermal.Quasi2D(),
		R:     r,
		J0:    phys.MAPerCm2(j0MA),
	})
}

func runDesignRuleTable(id string, metal *material.Metal, j0MA float64) (*Table, error) {
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("max allowed jpeak (MA/cm²), %s, j0 = %.1f MA/cm², quasi-2-D (phi = 2.45)", metal.Name, j0MA),
		Columns: []string{"lines", "node", "level", "Oxide", "HSQ", "Polyimide",
			"Tm(ox)[degC]"},
	}
	for _, r := range []float64{0.1, 1.0} {
		kind := "signal r=0.1"
		if r == 1.0 {
			kind = "power  r=1.0"
		}
		for _, base := range ntrs.Nodes() {
			tech := base.WithMetal(metal)
			for _, lvl := range DesignRuleLevels(tech) {
				row := []string{kind, tech.Name, fmt.Sprintf("M%d", lvl)}
				var tmOx float64
				for _, d := range material.PaperDielectrics() {
					sol, err := SolveRule(tech.WithGapFill(d), lvl, r, j0MA)
					if err != nil {
						return nil, fmt.Errorf("%s M%d %s: %w", tech.Name, lvl, d.Name, err)
					}
					row = append(row, fmt.Sprintf("%.3g", phys.ToMAPerCm2(sol.Jpeak)))
					if d.Name == "Oxide" {
						tmOx = phys.KToC(sol.Tm)
					}
				}
				row = append(row, fmt.Sprintf("%.0f", tmOx))
				t.AddRow(row...)
			}
		}
	}
	switch id {
	case "tab2":
		t.Note("paper orderings reproduced: oxide > HSQ > polyimide; jpeak falls going up levels; signal >> power")
		t.Note("at j0 = 0.6 the reconstruction is EM-limited (Tm barely above Tref), so dielectric sensitivity is weak;")
		t.Note("the paper's strong contrast (e.g. 5.94/4.72/3.38) back-solves to a heat-limited regime with a much larger")
		t.Note("thermal coefficient — see EXPERIMENTS.md and the rulesfdm experiment for the regime analysis")
	case "tab3":
		t.Note("3x j0 raises every entry vs tab2, sub-linearly at low duty cycles (Fig. 3 saturation)")
	case "tab4":
		t.Note("AlCu allows less current than Cu at identical geometry and j0 (higher resistivity)")
	}
	t.Note("geometry is the DESIGN.md Table-8 reconstruction; orderings and ratios are the reproduction target")
	return t, nil
}

func runTab8() (*Table, error) {
	t := &Table{
		ID:      "tab8",
		Title:   "reconstructed NTRS technology files (see DESIGN.md note 1)",
		Columns: []string{"node", "level", "class", "W[um]", "t[um]", "pitch[um]", "ILD[um]", "Rs[Ohm/sq]"},
	}
	for _, tech := range ntrs.Nodes() {
		if err := tech.Validate(); err != nil {
			return nil, err
		}
		for _, l := range tech.Layers {
			rs := tech.Metal.SheetResistance(l.Thick, material.Tref100C)
			t.AddRow(tech.Name, fmt.Sprintf("M%d", l.Level), l.Class.String(),
				fmt.Sprintf("%.2f", phys.ToMicrons(l.Width)),
				fmt.Sprintf("%.2f", phys.ToMicrons(l.Thick)),
				fmt.Sprintf("%.2f", phys.ToMicrons(l.Pitch)),
				fmt.Sprintf("%.2f", phys.ToMicrons(l.ILD)),
				fmt.Sprintf("%.4f", rs))
		}
		t.AddRow(tech.Name, "Vdd", fmt.Sprintf("%.2f V", tech.Vdd), "clock",
			fmt.Sprintf("%.0f MHz", tech.Clock/1e6), "", "", "")
	}
	t.Note("legible fragment check: 0.085 Ohm/sq corresponds to ~0.26 um Cu; reconstructed M1(0.1um) gives the same order")
	return t, nil
}
