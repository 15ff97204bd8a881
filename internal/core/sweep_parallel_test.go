package core

import (
	"context"
	"testing"

	"dsmtherm/internal/geometry"
	"dsmtherm/internal/material"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/thermal"
)

func sweepTestProblem(t *testing.T) Problem {
	t.Helper()
	return Problem{
		Line: &geometry.Line{
			Metal:  &material.Cu,
			Width:  phys.Microns(3),
			Thick:  phys.Microns(0.5),
			Length: phys.Microns(1000),
			Below:  geometry.Stack{{Material: &material.Oxide, Thickness: phys.Microns(3)}},
		},
		Model: thermal.Quasi1D(),
		R:     0.1,
		J0:    phys.MAPerCm2(0.6),
	}
}

// TestSweepParallelEqualsSerial: a sweep grid cut into chunks, each
// chunk swept on its own goroutine (as the sweep job runner's chunks
// run across job workers), concatenates to exactly the whole serial
// sweep — same points, same order, bit-identical solutions — at 1, 2
// and 8 workers, for both sweep axes.
func TestSweepParallelEqualsSerial(t *testing.T) {
	p := sweepTestProblem(t)
	axes := []struct {
		name  string
		xs    []float64
		sweep func(context.Context, Problem, []float64) ([]SweepPoint, error)
	}{
		{"duty", Fig2DutyCycles(25), SweepDutyCycleCtx},
		{"j0", []float64{phys.MAPerCm2(0.6), phys.MAPerCm2(1.2), phys.MAPerCm2(1.8)}, SweepJ0Ctx},
	}
	const chunk = 4
	for _, ax := range axes {
		serial, err := ax.sweep(context.Background(), p, ax.xs)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 8} {
			nChunks := (len(ax.xs) + chunk - 1) / chunk
			parts := make([][]SweepPoint, nChunks)
			err := mathx.ForEach(context.Background(), nChunks, w, func(ctx context.Context, c int) error {
				lo := c * chunk
				var err error
				parts[c], err = ax.sweep(ctx, p, ax.xs[lo:min(lo+chunk, len(ax.xs))])
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			var par []SweepPoint
			for _, part := range parts {
				par = append(par, part...)
			}
			if len(par) != len(serial) {
				t.Fatalf("%s workers=%d: %d points, want %d", ax.name, w, len(par), len(serial))
			}
			for i := range par {
				if par[i] != serial[i] {
					t.Fatalf("%s workers=%d point %d: %+v != serial %+v", ax.name, w, i, par[i], serial[i])
				}
			}
		}
	}
}
