package exp

import (
	"fmt"

	"dsmtherm/internal/core"
	"dsmtherm/internal/fdm"
	"dsmtherm/internal/geometry"
	"dsmtherm/internal/material"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/thermal"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Paper: "Fig. 5",
		Title: "thermal impedance vs line width, oxide vs HSQ gap fill; phi extraction",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "tab7",
		Paper: "Table 7",
		Title: "max jpeak of an M4 line: isolated vs M1–M4 heated (3-D array)",
		Run:   runTab7,
	})
}

// fig5Geometry builds the Fig. 5 measurement structure at one width:
// level-1 AlCu, tox = 1.2 µm, passivated, with the chosen gap fill.
func fig5Geometry(wUm float64, gap *material.Dielectric) (*geometry.Array, *geometry.Line, error) {
	ar, err := fdm.SingleLineArray(&material.AlCu,
		phys.Microns(wUm), phys.Microns(0.6), phys.Microns(1.2),
		&material.Oxide, gap, phys.Microns(12), phys.Microns(2))
	if err != nil {
		return nil, nil, err
	}
	line := &geometry.Line{
		Metal:  &material.AlCu,
		Width:  phys.Microns(wUm),
		Thick:  phys.Microns(0.6),
		Length: phys.Microns(1000), // paper: L = 1000 µm
		Below:  geometry.Stack{{Material: &material.Oxide, Thickness: phys.Microns(1.2)}},
	}
	return ar, line, nil
}

// Fig5Impedance returns the FDM thermal impedance (K/W, for the 1000 µm
// line) at one width with the given gap fill.
func Fig5Impedance(wUm float64, gap *material.Dielectric) (float64, error) {
	ar, line, err := fig5Geometry(wUm, gap)
	if err != nil {
		return 0, err
	}
	perLen, err := fdm.LineImpedance(ar, 0)
	if err != nil {
		return 0, err
	}
	return perLen / line.Length, nil
}

func runFig5() (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "effective thermal impedance of level-1 AlCu lines (tox = 1.2 µm, L = 1000 µm)",
		Columns: []string{"W[um]", "theta-oxide[K/W]", "theta-HSQ[K/W]", "HSQ/oxide", "phi(oxide)"},
	}
	widths := []float64{0.35, 0.6, 1.0, 2.0, 3.3}
	type fig5Point struct {
		thOx, thHSQ, phi float64
	}
	points := make([]fig5Point, len(widths))
	for i, w := range widths {
		thOx, err := Fig5Impedance(w, &material.Oxide)
		if err != nil {
			return nil, err
		}
		thHSQ, err := Fig5Impedance(w, &material.HSQ)
		if err != nil {
			return nil, err
		}
		_, line, err := fig5Geometry(w, &material.Oxide)
		if err != nil {
			return nil, err
		}
		phi, err := thermal.PhiFromImpedance(line, thOx)
		if err != nil {
			return nil, err
		}
		points[i] = fig5Point{thOx: thOx, thHSQ: thHSQ, phi: phi}
	}
	var phis []float64
	var ratioNarrow float64
	for i, w := range widths {
		p := points[i]
		phis = append(phis, p.phi)
		if i == 0 {
			ratioNarrow = p.thHSQ / p.thOx
		}
		t.AddRow(
			fmt.Sprintf("%.2f", w),
			fmt.Sprintf("%.1f", p.thOx),
			fmt.Sprintf("%.1f", p.thHSQ),
			fmt.Sprintf("%.3f", p.thHSQ/p.thOx),
			fmt.Sprintf("%.2f", p.phi),
		)
	}
	t.Note("paper: HSQ impedance ~20%% above oxide at W = 0.35 µm; measured %.0f%%", 100*(ratioNarrow-1))
	t.Note("paper: phi extracted as 2.45 at W = 0.35 µm; measured %.2f (mean %.2f across widths)",
		phis[0], mathx.Mean(phis))
	t.Note("measurement substrate replaced by the FDM solver (DESIGN.md note 2)")
	return t, nil
}

// Fig8Array builds the Table 7 / Fig. 8 quadruple-level Cu array: three
// minimum-pitch lines per level.
func Fig8Array() (*geometry.Array, error) {
	return geometry.UniformArray(4, 3, &material.Cu,
		phys.Microns(0.5), phys.Microns(0.6), phys.Microns(1.0), phys.Microns(0.8),
		&material.Oxide, &material.Oxide, phys.Microns(1.5))
}

// Tab7Result carries the Table 7 reproduction values.
type Tab7Result struct {
	Factor                    float64 // coupled/isolated effective-θ ratio
	JpeakIsolated, JpeakArray float64 // A/m²
	Drop                      float64 // 1 − coupled/isolated jpeak
}

// RunTab7 computes the Table 7 comparison: self-consistent jpeak of the
// center M4 line from FDM effective impedances, isolated vs the M1–M4
// heated column (plus in-plane M4 neighbors), at r = 0.1 and
// j0 = 1.8 MA/cm² (the Cu budget of Table 3).
func RunTab7() (Tab7Result, error) {
	ar, err := Fig8Array()
	if err != nil {
		return Tab7Result{}, err
	}
	obs := fdm.LineRef{Level: 4, Index: 1}
	var heated []fdm.LineRef
	for lvl := 1; lvl <= 4; lvl++ {
		for idx := 0; idx < 3; idx++ {
			heated = append(heated, fdm.LineRef{Level: lvl, Index: idx})
		}
	}
	cr, err := fdm.CouplingFactorFor(ar, obs, heated, 0)
	if err != nil {
		return Tab7Result{}, err
	}
	lvl := ar.Levels[3]
	solve := func(thetaPerLen float64) (core.Solution, error) {
		return core.SolveCoeff(core.CoeffProblem{
			Metal: lvl.Metal,
			Coeff: lvl.Width * lvl.Thick * thetaPerLen,
			R:     0.1,
			J0:    phys.MAPerCm2(1.8),
		})
	}
	iso, err := solve(cr.IsolatedImpedance)
	if err != nil {
		return Tab7Result{}, err
	}
	coup, err := solve(cr.CoupledImpedance)
	if err != nil {
		return Tab7Result{}, err
	}
	return Tab7Result{
		Factor:        cr.Factor,
		JpeakIsolated: iso.Jpeak,
		JpeakArray:    coup.Jpeak,
		Drop:          1 - coup.Jpeak/iso.Jpeak,
	}, nil
}

func runTab7() (*Table, error) {
	r, err := RunTab7()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "tab7",
		Title:   "max allowed jpeak for a metal-4 line (MA/cm²), FDM effective impedances",
		Columns: []string{"configuration", "jpeak[MA/cm2]", "paper[MA/cm2]"},
	}
	t.AddRow("M1–M4 heated (3-D)", fmt.Sprintf("%.3g", phys.ToMAPerCm2(r.JpeakArray)), "6.4")
	t.AddRow("Isolated M4 heated (2-D)", fmt.Sprintf("%.3g", phys.ToMAPerCm2(r.JpeakIsolated)), "10.6")
	t.Note("effective-theta coupling factor = %.2f (paper implies (10.6/6.4)² = 2.74)", r.Factor)
	t.Note("paper: jpeak reduces by 'nearly 40%%'; measured %.0f%%", 100*r.Drop)
	t.Note("Rzepka FEM replaced by the FDM solver (DESIGN.md note 4); heated set = all 12 lines of the 4x3 array")
	return t, nil
}

func init() {
	register(Experiment{
		ID:    "rulesfdm",
		Paper: "§3.2 extension",
		Title: "FDM-calibrated self-consistent rules (replaces the Weff model with solved impedances)",
		Run:   runRulesFDM,
	})
}

// FDMLevelImpedance solves the full 2-D conduction problem for a single
// minimum-width line of the given technology level sitting on the Eq.-15
// representation of its underlying stack (lower levels as dielectric
// slabs), returning the per-unit-length thermal impedance (K·m/W).
func FDMLevelImpedance(tech *ntrs.Technology, level int) (float64, error) {
	stack, err := tech.StackBelow(level)
	if err != nil {
		return 0, err
	}
	layer, err := tech.Layer(level)
	if err != nil {
		return 0, err
	}
	// The line's own ILD is the last stack entry; it becomes the array
	// level's ILD, the rest the base.
	base := stack[:len(stack)-1]
	own := stack[len(stack)-1]
	b := stack.TotalThickness()
	margin := 2.5 * b
	if min := phys.Microns(8); margin < min {
		margin = min
	}
	ar := &geometry.Array{
		Base: base,
		Levels: []geometry.ArrayLevel{{
			Metal: tech.Metal, Width: layer.Width, Thick: layer.Thick,
			Pitch: layer.Width, Count: 1,
			ILD: own.Thickness, GapFill: tech.Gap, ILDMat: tech.ILD,
		}},
		Passivation: geometry.Layer{Material: tech.ILD, Thickness: phys.Microns(2)},
		MarginX:     margin,
	}
	if err := ar.Validate(); err != nil {
		return 0, err
	}
	res := layer.Width / 3
	if res > b/12 {
		res = b / 12
	}
	return fdm.LineImpedance(ar, res)
}

// SolveRuleFDM is SolveRule with the FDM-calibrated impedance in place of
// the analytic quasi-2-D Weff model.
func SolveRuleFDM(tech *ntrs.Technology, level int, r, j0MA float64) (core.Solution, error) {
	theta, err := FDMLevelImpedance(tech, level)
	if err != nil {
		return core.Solution{}, err
	}
	layer, err := tech.Layer(level)
	if err != nil {
		return core.Solution{}, err
	}
	return core.SolveCoeff(core.CoeffProblem{
		Metal: tech.Metal,
		Coeff: layer.Width * layer.Thick * theta,
		R:     r,
		J0:    phys.MAPerCm2(j0MA),
	})
}

func runRulesFDM() (*Table, error) {
	t := &Table{
		ID:    "rulesfdm",
		Title: "max jpeak (MA/cm²), Cu, j0 = 1.8 MA/cm², r = 0.1, FDM-solved impedances",
		Columns: []string{"node", "level", "Oxide", "HSQ", "Polyimide",
			"Tm(ox)[degC]", "Weff-model(ox)"},
	}
	for _, base := range ntrs.Nodes() {
		for _, lvl := range DesignRuleLevels(base) {
			row := []string{base.Name, fmt.Sprintf("M%d", lvl)}
			var tmOx float64
			for _, d := range material.PaperDielectrics() {
				sol, err := SolveRuleFDM(base.WithGapFill(d), lvl, 0.1, 1.8)
				if err != nil {
					return nil, fmt.Errorf("%s M%d %s: %w", base.Name, lvl, d.Name, err)
				}
				row = append(row, fmt.Sprintf("%.3g", phys.ToMAPerCm2(sol.Jpeak)))
				if d.Name == "Oxide" {
					tmOx = phys.KToC(sol.Tm)
				}
			}
			ana, err := SolveRule(base, lvl, 0.1, 1.8)
			if err != nil {
				return nil, err
			}
			t.AddRow(append(row, fmt.Sprintf("%.0f", tmOx), fmt.Sprintf("%.3g", phys.ToMAPerCm2(ana.Jpeak)))...)
		}
	}
	t.Note("the solved impedances exceed the Weff model for thick stacks (spreading saturates logarithmically),")
	t.Note("so upper levels lose more jpeak and the dielectric sensitivity strengthens — toward the paper's Table 2/3 contrast")
	return t, nil
}
