// Package ntrs provides National Technology Roadmap for Semiconductors
// (NTRS)-style technology files for the paper's two Cu nodes: 0.25 µm and
// 0.1 µm (Table 8 and the appendix).
//
// The printed Table 8 is largely illegible in the available scan (see
// DESIGN.md, reconstruction note 1); the values here are reconstructed
// from the NTRS-97 roadmap entries the paper cites and are
// cross-validated against the legible fragments — e.g. the 0.085 Ω/□
// sheet resistance corresponds to ≈ 0.26 µm of Cu at room temperature,
// matching this file's M1 thickness for the 0.1 µm node, and the
// reconstructed 0.25 µm global tier reproduces the legible Table 2 entry
// (5.94 MA/cm², M5, oxide, r = 0.1) through the self-consistent solver.
package ntrs

import (
	"errors"
	"fmt"
	"strings"

	"dsmtherm/internal/geometry"
	"dsmtherm/internal/material"
	"dsmtherm/internal/phys"
)

// LayerClass is the routing tier of a metallization level.
type LayerClass int

// Routing tiers, bottom-up.
const (
	Local LayerClass = iota
	Intermediate
	Global
)

// String implements fmt.Stringer.
func (c LayerClass) String() string {
	switch c {
	case Local:
		return "local"
	case Intermediate:
		return "intermediate"
	case Global:
		return "global"
	}
	return fmt.Sprintf("LayerClass(%d)", int(c))
}

// MetalLayer is one metallization level.
type MetalLayer struct {
	Level int        // 1-based
	Class LayerClass // routing tier
	Width float64    // minimum drawn line width, m
	Thick float64    // metal thickness, m
	Pitch float64    // minimum line pitch (width + space), m
	ILD   float64    // inter-level dielectric thickness below this level, m
}

// Space returns the minimum line-to-line spacing.
func (l *MetalLayer) Space() float64 { return l.Pitch - l.Width }

// AspectRatio returns thickness/width.
func (l *MetalLayer) AspectRatio() float64 { return l.Thick / l.Width }

// DeviceParams are the minimum-inverter parameters that feed the repeater
// optimization (Eqs. 16–17) and the transient driver model (§4).
type DeviceParams struct {
	R0   float64 // effective switching resistance of a minimum inverter, Ω
	Cg   float64 // minimum-inverter input (gate) capacitance, F
	Cp   float64 // minimum-inverter output (parasitic drain) capacitance, F
	Isat float64 // saturation (peak drive) current of a minimum inverter, A
}

// Technology is a complete interconnect technology file.
type Technology struct {
	Name    string
	Feature float64 // drawn feature size, m
	Vdd     float64 // supply, V
	Clock   float64 // across-chip clock, Hz

	Metal *material.Metal
	// ILD is the inter-level dielectric (between metallization levels).
	ILD *material.Dielectric
	// Gap is the intra-level (gap-fill) dielectric between lines of the
	// same level — the material Tables 2–4 sweep.
	Gap *material.Dielectric

	Layers []MetalLayer
	Device DeviceParams
}

// N250 returns the reconstructed 0.25 µm Cu technology: six metallization
// levels, 2.5 V, 375 MHz across-chip clock (NTRS-97 across-chip figure —
// global signal lines switch at the across-chip rate, which is what sets
// the §4 duty cycle).
func N250() *Technology {
	cu := material.Cu
	ox := material.Oxide
	return &Technology{
		Name:    "NTRS-0.25um",
		Feature: phys.Microns(0.25),
		Vdd:     2.5,
		Clock:   375e6,
		Metal:   &cu,
		ILD:     &ox,
		Gap:     &ox,
		Layers: []MetalLayer{
			{Level: 1, Class: Local, Width: phys.Microns(0.30), Thick: phys.Microns(0.54), Pitch: phys.Microns(0.66), ILD: phys.Microns(0.65)},
			{Level: 2, Class: Local, Width: phys.Microns(0.30), Thick: phys.Microns(0.54), Pitch: phys.Microns(0.66), ILD: phys.Microns(0.65)},
			{Level: 3, Class: Intermediate, Width: phys.Microns(0.45), Thick: phys.Microns(0.81), Pitch: phys.Microns(1.00), ILD: phys.Microns(0.70)},
			{Level: 4, Class: Intermediate, Width: phys.Microns(0.45), Thick: phys.Microns(0.81), Pitch: phys.Microns(1.00), ILD: phys.Microns(0.70)},
			{Level: 5, Class: Global, Width: phys.Microns(1.00), Thick: phys.Microns(0.90), Pitch: phys.Microns(2.20), ILD: phys.Microns(0.90)},
			{Level: 6, Class: Global, Width: phys.Microns(1.00), Thick: phys.Microns(0.90), Pitch: phys.Microns(2.20), ILD: phys.Microns(0.90)},
		},
		Device: DeviceParams{R0: 4.6e3, Cg: 1.9e-15, Cp: 2.2e-15, Isat: 0.27e-3},
	}
}

// N100 returns the reconstructed 0.1 µm Cu technology: eight metallization
// levels, 1.2 V, 1.1 GHz across-chip clock. The Table 6 delay analysis for
// this node assumes a k = 2.0 insulator; use WithGapFill(material.LowK2)
// for that configuration.
func N100() *Technology {
	cu := material.Cu
	ox := material.Oxide
	return &Technology{
		Name:    "NTRS-0.10um",
		Feature: phys.Microns(0.10),
		Vdd:     1.2,
		Clock:   1.1e9,
		Metal:   &cu,
		ILD:     &ox,
		Gap:     &ox,
		Layers: []MetalLayer{
			{Level: 1, Class: Local, Width: phys.Microns(0.13), Thick: phys.Microns(0.26), Pitch: phys.Microns(0.28), ILD: phys.Microns(0.32)},
			{Level: 2, Class: Local, Width: phys.Microns(0.13), Thick: phys.Microns(0.26), Pitch: phys.Microns(0.28), ILD: phys.Microns(0.32)},
			{Level: 3, Class: Intermediate, Width: phys.Microns(0.20), Thick: phys.Microns(0.45), Pitch: phys.Microns(0.44), ILD: phys.Microns(0.45)},
			{Level: 4, Class: Intermediate, Width: phys.Microns(0.20), Thick: phys.Microns(0.45), Pitch: phys.Microns(0.44), ILD: phys.Microns(0.45)},
			{Level: 5, Class: Intermediate, Width: phys.Microns(0.28), Thick: phys.Microns(0.50), Pitch: phys.Microns(0.60), ILD: phys.Microns(0.50)},
			{Level: 6, Class: Intermediate, Width: phys.Microns(0.28), Thick: phys.Microns(0.50), Pitch: phys.Microns(0.60), ILD: phys.Microns(0.50)},
			{Level: 7, Class: Global, Width: phys.Microns(0.50), Thick: phys.Microns(0.90), Pitch: phys.Microns(1.10), ILD: phys.Microns(0.55)},
			{Level: 8, Class: Global, Width: phys.Microns(0.50), Thick: phys.Microns(0.90), Pitch: phys.Microns(1.10), ILD: phys.Microns(0.55)},
		},
		Device: DeviceParams{R0: 6.2e3, Cg: 0.45e-15, Cp: 0.5e-15, Isat: 0.097e-3},
	}
}

// Nodes returns both paper nodes, 0.25 µm first.
func Nodes() []*Technology { return []*Technology{N250(), N100()} }

// ErrUnknown is wrapped by every Lookup failure: a node, gap-fill or
// metal name that selects nothing.
var ErrUnknown = errors.New("ntrs: unknown technology selector")

// Lookup resolves the technology selectors every front end accepts.
// The node is "" (the 0.25 µm default), "0.25", "250" or "n250" for
// N250, and "0.10", "0.1", "100" or "n100" for N100. A non-empty gap
// swaps the gap-fill dielectric (material.DielectricByName names) and a
// non-empty metal the interconnect metal (material.MetalByName names).
func Lookup(node, gap, metal string) (*Technology, error) {
	var t *Technology
	switch node {
	case "", "0.25", "250", "n250":
		t = N250()
	case "0.10", "0.1", "100", "n100":
		t = N100()
	default:
		return nil, fmt.Errorf("%w: node %q (want 0.25 or 0.10)", ErrUnknown, node)
	}
	if gap != "" {
		d, err := material.DielectricByName(gap)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknown, err)
		}
		t = t.WithGapFill(d)
	}
	if metal != "" {
		m, err := material.MetalByName(metal)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknown, err)
		}
		t = t.WithMetal(m)
	}
	return t, nil
}

// NumLevels returns the metallization level count.
func (t *Technology) NumLevels() int { return len(t.Layers) }

// Layer returns the 1-based level.
func (t *Technology) Layer(level int) (*MetalLayer, error) {
	if level < 1 || level > len(t.Layers) {
		return nil, fmt.Errorf("ntrs: %s has no level %d (1..%d)", t.Name, level, len(t.Layers))
	}
	return &t.Layers[level-1], nil
}

// TopLevels returns the highest n levels (ascending), the "top few layers
// of metal" that carry the thermally long inter-block wiring (§3.2).
func (t *Technology) TopLevels(n int) []int {
	if n > len(t.Layers) {
		n = len(t.Layers)
	}
	out := make([]int, 0, n)
	for i := len(t.Layers) - n; i < len(t.Layers); i++ {
		out = append(out, t.Layers[i].Level)
	}
	return out
}

// WithGapFill returns a deep copy of the technology with the intra-level
// (gap-fill) dielectric replaced — the Tables 2–4 sweep axis.
func (t *Technology) WithGapFill(d *material.Dielectric) *Technology {
	c := t.clone()
	dc := *d
	c.Gap = &dc
	c.Name = fmt.Sprintf("%s/%s", t.Name, d.Name)
	return c
}

// WithMetal returns a deep copy with the interconnect metal replaced
// (Table 4's AlCu comparison).
func (t *Technology) WithMetal(m *material.Metal) *Technology {
	c := t.clone()
	mc := *m
	c.Metal = &mc
	c.Name = fmt.Sprintf("%s/%s", t.Name, m.Name)
	return c
}

func (t *Technology) clone() *Technology {
	c := *t
	c.Layers = append([]MetalLayer(nil), t.Layers...)
	m := *t.Metal
	c.Metal = &m
	ild := *t.ILD
	c.ILD = &ild
	gap := *t.Gap
	c.Gap = &gap
	return &c
}

// StackBelow builds the dielectric stack between the bottom of the given
// level's lines and the silicon substrate: for each lower level, its ILD
// (inter-level material) in series with its intra-level region (gap-fill
// material), plus the level's own ILD on top. Treating the gap-fill
// thickness as a pure dielectric slab ignores in-plane conduction through
// lower-level metal, which makes the rule conservative; the FDM solver
// (internal/fdm) quantifies that approximation.
func (t *Technology) StackBelow(level int) (geometry.Stack, error) {
	l, err := t.Layer(level)
	if err != nil {
		return nil, err
	}
	var s geometry.Stack
	for i := 0; i < level-1; i++ {
		s = append(s,
			geometry.Layer{Material: t.ILD, Thickness: t.Layers[i].ILD},
			geometry.Layer{Material: t.Gap, Thickness: t.Layers[i].Thick},
		)
	}
	s = append(s, geometry.Layer{Material: t.ILD, Thickness: l.ILD})
	return s, nil
}

// Line builds a minimum-width line of the given level and length, with
// the full dielectric stack below it.
func (t *Technology) Line(level int, length float64) (*geometry.Line, error) {
	l, err := t.Layer(level)
	if err != nil {
		return nil, err
	}
	s, err := t.StackBelow(level)
	if err != nil {
		return nil, err
	}
	ln := &geometry.Line{
		Metal:  t.Metal,
		Width:  l.Width,
		Thick:  l.Thick,
		Length: length,
		Below:  s,
		Level:  level,
	}
	if err := ln.Validate(); err != nil {
		return nil, err
	}
	return ln, nil
}

// SheetResistance returns the level's sheet resistance at temperature T.
func (t *Technology) SheetResistance(level int, tKelvin float64) (float64, error) {
	l, err := t.Layer(level)
	if err != nil {
		return 0, err
	}
	return t.Metal.SheetResistance(l.Thick, tKelvin), nil
}

// Validate sanity-checks the technology file (the `tab8` experiment).
func (t *Technology) Validate() error {
	if t.Metal == nil || t.ILD == nil || t.Gap == nil {
		return fmt.Errorf("ntrs: %s: missing material", t.Name)
	}
	if t.Vdd <= 0 || t.Clock <= 0 || t.Feature <= 0 {
		return fmt.Errorf("ntrs: %s: non-positive electrical parameter", t.Name)
	}
	if t.Device.R0 <= 0 || t.Device.Cg <= 0 || t.Device.Cp <= 0 || t.Device.Isat <= 0 {
		return fmt.Errorf("ntrs: %s: non-positive device parameter", t.Name)
	}
	if len(t.Layers) == 0 {
		return fmt.Errorf("ntrs: %s: no metallization levels", t.Name)
	}
	prevClass := Local
	for i, l := range t.Layers {
		if l.Level != i+1 {
			return fmt.Errorf("ntrs: %s: level %d out of order", t.Name, l.Level)
		}
		if l.Width <= 0 || l.Thick <= 0 || l.ILD <= 0 {
			return fmt.Errorf("ntrs: %s M%d: non-positive dimension", t.Name, l.Level)
		}
		if l.Pitch < l.Width {
			return fmt.Errorf("ntrs: %s M%d: pitch %g < width %g", t.Name, l.Level, l.Pitch, l.Width)
		}
		if ar := l.AspectRatio(); ar < 0.3 || ar > 4 {
			return fmt.Errorf("ntrs: %s M%d: implausible aspect ratio %g", t.Name, l.Level, ar)
		}
		if l.Class < prevClass {
			return fmt.Errorf("ntrs: %s M%d: tier class decreases going up", t.Name, l.Level)
		}
		prevClass = l.Class
	}
	return nil
}

// Describe renders the Table 8-style technology dump.
func (t *Technology) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.2f um %s, Vdd=%.2f V, clock=%.0f MHz, ILD=%s, gap-fill=%s\n",
		t.Name, phys.ToMicrons(t.Feature), t.Metal.Name, t.Vdd, t.Clock/1e6, t.ILD.Name, t.Gap.Name)
	fmt.Fprintf(&b, "  device: r0=%.1f kOhm cg=%.2f fF cp=%.2f fF Isat=%.2f mA\n",
		t.Device.R0/1e3, t.Device.Cg*1e15, t.Device.Cp*1e15, t.Device.Isat*1e3)
	fmt.Fprintf(&b, "  %-3s %-12s %7s %7s %7s %7s %9s\n", "lvl", "class", "W[um]", "t[um]", "pitch", "ILD", "Rs[Ohm/sq]")
	for _, l := range t.Layers {
		rs := t.Metal.SheetResistance(l.Thick, material.Tref100C)
		fmt.Fprintf(&b, "  M%-2d %-12s %7.2f %7.2f %7.2f %7.2f %9.4f\n",
			l.Level, l.Class, phys.ToMicrons(l.Width), phys.ToMicrons(l.Thick),
			phys.ToMicrons(l.Pitch), phys.ToMicrons(l.ILD), rs)
	}
	return b.String()
}
