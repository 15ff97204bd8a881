package fdm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/material"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/phys"
)

// The fallback-ladder tests: an injected primary-path failure at
// faultinject.SiteMathxSolve must walk the solve down to the CG rungs,
// produce an answer agreeing with the direct path, and count every step
// in the mathx numeric stats.

func TestSolverLadderFallbackMatchesDirect(t *testing.T) {
	ar := slabArray(t)
	s, err := NewSolver(ar, phys.Microns(0.2))
	if err != nil {
		t.Fatal(err)
	}
	powers := map[LineRef]float64{{Level: 1, Index: 0}: 1}
	direct, err := s.Solve(powers)
	if err != nil {
		t.Fatal(err)
	}

	before := mathx.NumericStats()
	cancel := faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
	defer cancel()
	ladder, err := s.Solve(powers)
	if err != nil {
		t.Fatalf("ladder solve: %v", err)
	}
	after := mathx.NumericStats()
	if after.FallbackSolves <= before.FallbackSolves {
		t.Fatalf("FallbackSolves %d -> %d, want increase", before.FallbackSolves, after.FallbackSolves)
	}

	w := ar.WidthExtent()
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		x, y := frac*w, phys.Microns(1.2)
		d, l := direct.At(x, y), ladder.At(x, y)
		if math.Abs(d-l) > 1e-6*(1+math.Abs(d)) {
			t.Fatalf("ladder field differs at (%g, %g): direct %g, ladder %g", x, y, d, l)
		}
	}
}

func TestSheetLadderFallbackMatchesDirect(t *testing.T) {
	nx, ny := 12, 10
	s, err := NewSheetSolver(nx, ny, 1e-4, 1e-4, 0.05, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Direct() {
		t.Skip("sheet solver did not take the direct path at this size")
	}
	power := make([]float64, s.Cells())
	for i := range power {
		power[i] = float64(i%7) * 1e3
	}
	direct := make([]float64, s.Cells())
	if err := s.Solve(power, direct); err != nil {
		t.Fatal(err)
	}

	cancel := faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
	defer cancel()
	ladder := make([]float64, s.Cells())
	if err := s.Solve(power, ladder); err != nil {
		t.Fatalf("ladder solve: %v", err)
	}
	for i := range direct {
		if math.Abs(direct[i]-ladder[i]) > 1e-6*(1+math.Abs(direct[i])) {
			t.Fatalf("cell %d: direct %g, ladder %g", i, direct[i], ladder[i])
		}
	}
}

// TestSheetSolveAliasedArgs pins the aliasing contract the ladder's
// private-copy guard provides: power and out may be the same slice.
func TestSheetSolveAliasedArgs(t *testing.T) {
	s, err := NewSheetSolver(8, 8, 1e-4, 1e-4, 0.05, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, s.Cells())
	for i := range power {
		power[i] = float64(i + 1)
	}
	want := make([]float64, s.Cells())
	if err := s.Solve(power, want); err != nil {
		t.Fatal(err)
	}
	buf := append([]float64(nil), power...)
	if err := s.Solve(buf, buf); err != nil {
		t.Fatalf("aliased solve: %v", err)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("cell %d: aliased %g, separate %g", i, buf[i], want[i])
		}
	}
}

// TestTransientLadderFallbackMatchesDirect: every backward-Euler step
// runs through the solve ladder, so an injected primary-path failure
// walks each step down to the CG rungs with the direct answer, and a
// singular step system fails with a structured mathx.ErrNumeric.
func TestTransientLadderFallbackMatchesDirect(t *testing.T) {
	ar, err := SingleLineArray(&material.AlCu,
		phys.Microns(3), phys.Microns(0.6), phys.Microns(1.0),
		&material.Oxide, &material.Oxide, phys.Microns(6), phys.Microns(1.5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(ar, phys.Microns(0.3))
	if err != nil {
		t.Fatal(err)
	}
	ref := LineRef{Level: 1, Index: 0}
	powers := map[LineRef]float64{ref: 10}
	direct, err := s.SolvePulse(powers, 1e-6, 3e-6, 30)
	if err != nil {
		t.Fatal(err)
	}

	before := mathx.NumericStats()
	cancel := faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
	defer cancel()
	ladder, err := s.SolvePulse(powers, 1e-6, 3e-6, 30)
	if err != nil {
		t.Fatalf("ladder pulse: %v", err)
	}
	if after := mathx.NumericStats(); after.FallbackSolves <= before.FallbackSolves {
		t.Fatalf("FallbackSolves %d -> %d, want increase", before.FallbackSolves, after.FallbackSolves)
	}
	agree := func(what string, d, l float64) {
		t.Helper()
		if math.Abs(d-l) > 1e-6*math.Abs(d) {
			t.Fatalf("%s: direct %g, ladder %g", what, d, l)
		}
	}
	for k, d := range direct.LineDT[ref] {
		agree(fmt.Sprintf("line ΔT at step %d", k), d, ladder.LineDT[ref][k])
	}
	for i, d := range direct.Final.dt {
		agree(fmt.Sprintf("final cell %d", i), d, ladder.Final.dt[i])
	}

	// A zero conduction matrix and zero heat capacity make every step
	// singular: no rung can solve it.
	cancel()
	singular, err := NewSolver(ar, phys.Microns(0.3))
	if err != nil {
		t.Fatal(err)
	}
	clear(singular.a.Val)
	for _, row := range singular.m.rhoc {
		clear(row)
	}
	if _, err := singular.SolvePulse(powers, 1e-6, 3e-6, 30); !errors.Is(err, mathx.ErrNumeric) {
		t.Fatalf("singular pulse: err = %v, want ErrNumeric", err)
	}
}
