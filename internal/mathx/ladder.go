package mathx

import (
	"context"
	"fmt"

	"dsmtherm/internal/faultinject"
)

// The solve fallback ladder. Every SPD conduction solve in the module —
// the cross-section and sheet FDM solvers, the transient integrator and
// the power-grid IR-drop pass — runs through one Ladder, which makes
// degradation explicit, verified and observable:
//
//	banded Cholesky (residual-verified) → IC(0) CG → Jacobi CG → ErrNumeric
//
// Every step down is counted (the NumericStats counters feed
// /metrics.resilience.numeric), a direct solve whose residual check
// fails never reaches a caller, and a solve that exhausts the ladder
// surfaces a structured ErrNumeric. faultinject.SiteMathxSolve skips
// the first rung — the direct rung when present, IC(0) otherwise — so
// chaos tests can force the ladder on healthy systems.

// cholEntryBudget caps the banded factor at 16M floats (128 MB): maxBand
// for an n-unknown system is cholEntryBudget/n, so fine meshes take the
// CG rungs instead of exhausting memory.
const cholEntryBudget = 1 << 24

// directSolveRtol is the residual-verification gate on the direct rung:
// a banded Cholesky on these SPD conduction matrices lands near machine
// precision (~1e-15 relative), so a residual above 1e-8 — two orders
// tighter than the CG target — means the factorization went bad for
// this RHS (overflow, NaN contamination) and the CG rungs take over.
const directSolveRtol = 1e-8

// Ladder solves a·x = b for one SPD matrix down the fallback ladder.
// Solve only reads the ladder, so one Ladder may serve concurrent
// solves with distinct vectors and scratch; Refactor must not run
// concurrently with Solve.
type Ladder struct {
	what    string // names the system in errors
	finite  string // what + " solution", built once so Solve allocates nothing
	a       *CSR
	direct  bool
	rtol    float64
	maxIter int
	chol    *BandCholesky // nil: no direct rung
	ic0     *IC0          // nil: built on fallback (direct ladders) or broken down
}

// NewLadder builds the ladder for a. With direct set and a band that
// fits the 16M-entry budget it factors a as a banded Cholesky;
// otherwise it builds the IC(0) preconditioner, and a breakdown leaves
// Jacobi CG as the only rung. rtol and maxIter (≤ 0 means 10·N)
// configure the CG rungs; what names the system in errors.
func NewLadder(what string, a *CSR, direct bool, rtol float64, maxIter int) *Ladder {
	l := &Ladder{what: what, finite: what + " solution", a: a, direct: direct, rtol: rtol, maxIter: maxIter}
	l.Refactor()
	return l
}

// Refactor refreshes the factors after a.Val was restamped in place on
// the same sparsity pattern. An existing IC(0) factor is refactored in
// its own storage, so a warm iterative ladder refactors without
// allocating.
func (l *Ladder) Refactor() {
	if l.direct {
		if c, err := NewBandCholesky(l.a, cholEntryBudget/l.a.N); err == nil {
			l.chol = c
			return
		}
		l.chol = nil
	}
	if l.ic0 == nil {
		l.ic0, _ = NewIC0(l.a)
	} else if l.ic0.Refactor(l.a) != nil {
		l.ic0 = nil
	}
}

// Direct reports whether the banded Cholesky rung is active.
func (l *Ladder) Direct() bool { return l.chol != nil }

// Solve writes the solution of a·x = b into x, which is the warm start
// of the first CG rung; b and x may alias. scratch may be nil (one is
// allocated); it must not be shared between concurrent solves. ctx
// reaches the fault site only.
func (l *Ladder) Solve(ctx context.Context, b, x []float64, scratch *CGScratch) error {
	if len(b) > 0 && len(x) > 0 && &b[0] == &x[0] {
		// Residual verification and the CG rungs both need the original
		// RHS after x is overwritten, so aliased calls get a private copy.
		b = append([]float64(nil), b...)
	}
	if scratch == nil {
		scratch = new(CGScratch)
	}
	skip := faultinject.Inject(ctx, faultinject.SiteMathxSolve) != nil
	ic0 := l.ic0
	if l.chol != nil {
		if !skip {
			l.chol.Solve(b, x)
			scratch.r = fit(scratch.r, l.a.N)
			// A NaN residual compares false here, so contaminated
			// solutions fall through with the genuinely inaccurate ones.
			if RelResidual(l.a, x, b, scratch.r) <= directSolveRtol {
				return nil
			}
			directRejects.Add(1)
			clear(x)
		}
		fallbackSolves.Add(1)
		skip = false
		// Direct ladders build IC(0) only once they need it, and keep it
		// local so concurrent solves never share a lazily built factor.
		ic0, _ = NewIC0(l.a)
	}
	if ic0 != nil {
		if !skip {
			if res := SolveCGScratch(l.a, b, x, l.rtol, l.maxIter, ic0, scratch); res.Converged {
				return l.checkFinite(x)
			}
			// A lower rung restarts cold: the failed rung may have left
			// NaN in x, which would poison the next warm start.
			clear(x)
		}
		fallbackSolves.Add(1)
	}
	res := SolveCGScratch(l.a, b, x, l.rtol, l.maxIter, newJacobi(l.a), scratch)
	if res.Converged {
		return l.checkFinite(x)
	}
	numericFailures.Add(1)
	return fmt.Errorf("%w: %s solve exhausted the fallback ladder (residual %g after %d iterations, diverged=%v stagnated=%v)",
		ErrNumeric, l.what, res.Residual, res.Iterations, res.Diverged, res.Stagnated)
}

// checkFinite is the last gate on a converged CG rung.
func (l *Ladder) checkFinite(x []float64) error {
	if err := CheckFinite(l.finite, x); err != nil {
		numericFailures.Add(1)
		return err
	}
	return nil
}
