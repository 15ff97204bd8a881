package fdm

import (
	"errors"
	"math"
	"testing"
)

func TestSheetSolverValidation(t *testing.T) {
	cases := []struct {
		name                string
		nx, ny              int
		dx, dy, sheet, sink float64
	}{
		{"zero nx", 0, 4, 1e-4, 1e-4, 0.05, 1e4},
		{"zero ny", 4, 0, 1e-4, 1e-4, 0.05, 1e4},
		{"bad dx", 4, 4, 0, 1e-4, 0.05, 1e4},
		{"bad dy", 4, 4, 1e-4, -1, 0.05, 1e4},
		{"nan dx", 4, 4, math.NaN(), 1e-4, 0.05, 1e4},
		{"inf dy", 4, 4, 1e-4, math.Inf(1), 0.05, 1e4},
		{"negative sheet", 4, 4, 1e-4, 1e-4, -0.05, 1e4},
		{"nan sheet", 4, 4, 1e-4, 1e-4, math.NaN(), 1e4},
		{"zero sink", 4, 4, 1e-4, 1e-4, 0.05, 0},
		{"inf sink", 4, 4, 1e-4, 1e-4, 0.05, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := NewSheetSolver(c.nx, c.ny, c.dx, c.dy, c.sheet, c.sink); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
}

func TestSheetSolverUniformAnalytic(t *testing.T) {
	// Uniform power density: lateral terms cancel by symmetry, so every
	// tile sits at dt = P_tile / (sink * dx * dy) exactly.
	const (
		nx, ny = 7, 5
		dx, dy = 2e-4, 3e-4
		sink   = 1e4
		ptile  = 1e-3
	)
	s, err := NewSheetSolver(nx, ny, dx, dy, 0.08, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Direct() {
		t.Fatalf("small sheet should take the banded-Cholesky path")
	}
	if s.Cells() != nx*ny {
		t.Fatalf("Cells() = %d, want %d", s.Cells(), nx*ny)
	}
	power := make([]float64, nx*ny)
	for i := range power {
		power[i] = ptile
	}
	out := make([]float64, nx*ny)
	if err := s.Solve(power, out); err != nil {
		t.Fatal(err)
	}
	want := ptile / (sink * dx * dy)
	for i, dt := range out {
		if math.Abs(dt-want) > 1e-9*want {
			t.Fatalf("tile %d: dt = %g, want %g", i, dt, want)
		}
	}
}

func TestSheetSolverPointSourceSymmetry(t *testing.T) {
	// A point source at the center of an odd grid must produce a field
	// symmetric under both axis reflections, decaying away from the source.
	const nx, ny = 9, 9
	s, err := NewSheetSolver(nx, ny, 1e-4, 1e-4, 0.05, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, nx*ny)
	power[4*nx+4] = 1e-2
	out := make([]float64, nx*ny)
	if err := s.Solve(power, out); err != nil {
		t.Fatal(err)
	}
	at := func(i, j int) float64 { return out[j*nx+i] }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if m := at(nx-1-i, j); math.Abs(at(i, j)-m) > 1e-12 {
				t.Fatalf("x-mirror broken at (%d,%d): %g vs %g", i, j, at(i, j), m)
			}
			if m := at(i, ny-1-j); math.Abs(at(i, j)-m) > 1e-12 {
				t.Fatalf("y-mirror broken at (%d,%d): %g vs %g", i, j, at(i, j), m)
			}
		}
	}
	if !(at(4, 4) > at(3, 4) && at(3, 4) > at(2, 4) && at(2, 4) > 0) {
		t.Fatalf("field does not decay from source: %g %g %g", at(4, 4), at(3, 4), at(2, 4))
	}
}

func TestSheetSolverLengthMismatch(t *testing.T) {
	s, err := NewSheetSolver(3, 3, 1e-4, 1e-4, 0.05, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(make([]float64, 8), make([]float64, 9)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("short power: err = %v, want ErrInvalid", err)
	}
	if err := s.Solve(make([]float64, 9), make([]float64, 10)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("long out: err = %v, want ErrInvalid", err)
	}
}

// TestSheetSolverManufacturedConvergence is a manufactured-solution
// oracle for the sheet stencil: ΔT = cos(πx/Lx)·cos(πy/Ly) meets the
// zero-flux edges, and the source that makes it exact in the continuum
// is q = (sheetCond·π²(1/Lx²+1/Ly²) + sinkCond)·ΔT per unit area. The
// tile-centre error must fall as h² over three refinements.
func TestSheetSolverManufacturedConvergence(t *testing.T) {
	const (
		lx, ly    = 2e-3, 1.5e-3
		sheetCond = 0.05
		sinkCond  = 1e4
	)
	exact := func(x, y float64) float64 { return math.Cos(math.Pi*x/lx) * math.Cos(math.Pi*y/ly) }
	gain := sheetCond*math.Pi*math.Pi*(1/(lx*lx)+1/(ly*ly)) + sinkCond
	var errs []float64
	for _, nx := range []int{8, 16, 32, 64} {
		ny := nx / 2 // dx ≠ dy, so a swapped gx/gy would show
		dx, dy := lx/float64(nx), ly/float64(ny)
		s, err := NewSheetSolver(nx, ny, dx, dy, sheetCond, sinkCond)
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, nx*ny)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				q[j*nx+i] = gain * exact((float64(i)+0.5)*dx, (float64(j)+0.5)*dy) * dx * dy
			}
		}
		dt := make([]float64, nx*ny)
		if err := s.Solve(q, dt); err != nil {
			t.Fatal(err)
		}
		maxErr := 0.0
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				maxErr = math.Max(maxErr, math.Abs(dt[j*nx+i]-exact((float64(i)+0.5)*dx, (float64(j)+0.5)*dy)))
			}
		}
		errs = append(errs, maxErr)
	}
	t.Logf("max errors %g", errs)
	for k := 1; k < len(errs); k++ {
		if order := math.Log2(errs[k-1] / errs[k]); order < 1.8 || order > 2.2 {
			t.Errorf("refinement %d: observed order %.3f outside [1.8, 2.2] (errors %g)", k, order, errs)
		}
	}
}
