package mathx

import "math"

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// Diag extracts the diagonal of the matrix; zero diagonal entries are
// returned as zero.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				d[i] = m.Val[k]
			}
		}
	}
	return d
}

// Slot returns the index into Val of entry (i, j), or -1 if the
// sparsity pattern has no such entry. Rows must list their columns in
// ascending order (every assembler in the module emits them that way),
// so this is a binary search within row i. It lets value-only refreshes
// (re-stamping temperature-dependent conductances onto a fixed
// topology) resolve each stamp's slot once, then rewrite Val in place
// on every pass.
func (m *CSR) Slot(i, j int) int {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.ColIdx[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.RowPtr[i+1] && m.ColIdx[lo] == j {
		return lo
	}
	return -1
}

// MulVec computes y = M·x.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic("mathx: CSR.MulVec dimension mismatch")
	}
	for i := 0; i < m.N; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// reduceChunk is Dot's fixed summation block. Vectors up to this length
// sum as a plain sequential loop (so the scalar solvers' tiny vectors
// are bit-for-bit a naive sum); longer ones sum each block separately
// and add the block partials in order. The bracketing depends only on
// the length, so every Dot result is reproducible.
const reduceChunk = 4096

// Dot returns the inner product of two equal-length vectors, bracketed
// in reduceChunk blocks.
func Dot(a, b []float64) float64 {
	s := 0.0
	for lo := 0; lo < len(a); lo += reduceChunk {
		hi := min(lo+reduceChunk, len(a))
		cs := 0.0
		for i := lo; i < hi; i++ {
			cs += a[i] * b[i]
		}
		s += cs
	}
	return s
}

// Axpy computes y += alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// CGResult reports the outcome of a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64 // final ‖b − A·x‖₂ / ‖b‖₂
	Converged  bool
	// Diverged marks a solve the divergence detector cut short: the
	// residual went NaN/Inf, exploded past cgDivergeLimit, or the
	// iteration broke down (p·Ap ≤ 0 on a supposedly SPD system). The
	// solution vector is garbage; callers fall down their ladder or
	// surface ErrNumeric.
	Diverged bool
	// Stagnated marks a solve cut short by the stagnation detector: no
	// new best residual for cgStagnationWindow iterations. Unlike plain
	// non-convergence at MaxIter, stagnation means more iterations
	// cannot help.
	Stagnated bool
}

// CGScratch holds the four work vectors of a CG solve so repeated
// solves of same-size systems (the electrothermal fixed point solves
// the same grid dozens of times) produce no per-call garbage. The zero
// value is ready to use; vectors are (re)sized on demand.
type CGScratch struct {
	r, z, p, ap []float64
}

func (s *CGScratch) resize(n int) {
	s.r, s.z, s.p, s.ap = fit(s.r, n), fit(s.z, n), fit(s.p, n), fit(s.ap, n)
}

// fit returns v resliced to length n, reallocated when too short.
func fit(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// SolveCGPrec solves A·x = b for a symmetric positive-definite CSR
// matrix by CG with a caller-supplied (reusable) preconditioner, so
// batched multi-RHS solves pay the setup cost once. x is the initial
// guess and is overwritten with the solution; rtol is the relative
// residual target and maxIter caps the iterations (≤ 0 means 10·N).
// An all-zero b short-circuits to the exact solution x = 0 (Converged,
// zero iterations) regardless of the initial guess.
func SolveCGPrec(a *CSR, b, x []float64, rtol float64, maxIter int, m Preconditioner) CGResult {
	return SolveCGScratch(a, b, x, rtol, maxIter, m, &CGScratch{})
}

// SolveCGScratch is SolveCGPrec with caller-owned work vectors; results
// are identical, only the allocation behavior differs. The scratch must
// not be shared between concurrent solves.
func SolveCGScratch(a *CSR, b, x []float64, rtol float64, maxIter int, m Preconditioner, scratch *CGScratch) CGResult {
	n := a.N
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		// A is SPD hence nonsingular: b = 0 ⇒ x = 0 exactly.
		for i := range x {
			x[i] = 0
		}
		return CGResult{Iterations: 0, Residual: 0, Converged: true}
	}
	scratch.resize(n)
	r, z, p, ap := scratch.r, scratch.z, scratch.p, scratch.ap

	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	m.Apply(r, z)
	copy(p, z)
	rz := Dot(r, z)
	res := CGResult{}
	bestRn, bestK := math.Inf(1), 0
	for k := 0; k < maxIter; k++ {
		rn := Norm2(r) / bnorm
		res.Iterations, res.Residual = k, rn
		if rn < rtol {
			res.Converged = true
			return res
		}
		// Divergence detector: a NaN/Inf residual (NaN input, broken
		// preconditioner) or one exploding past cgDivergeLimit cannot
		// recover — bail out immediately rather than spinning to maxIter
		// on garbage.
		if math.IsNaN(rn) || math.IsInf(rn, 0) || rn > cgDivergeLimit {
			res.Diverged = true
			cgDivergences.Add(1)
			return res
		}
		// Stagnation detector: no new best residual in a long window
		// means the Krylov process has broken down (effectively singular
		// or non-SPD A) and further iterations are wasted.
		if rn < bestRn {
			bestRn, bestK = rn, k
		} else if k-bestK >= cgStagnationWindow {
			res.Stagnated = true
			cgStagnations.Add(1)
			return res
		}
		a.MulVec(p, ap)
		pap := Dot(p, ap)
		if pap == 0 || math.IsNaN(pap) {
			// Breakdown: a zero or NaN curvature on a live residual. The
			// residual check above already returned for converged solves,
			// so this is always a genuine failure.
			res.Diverged = true
			cgDivergences.Add(1)
			return res
		}
		alpha := rz / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		m.Apply(r, z)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.Residual = Norm2(r) / bnorm
	res.Converged = res.Residual < rtol
	return res
}
