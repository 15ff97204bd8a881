package mathx

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel kernel layer. The numeric hot loops (SpMV, the CG reductions,
// the outer-loop fan-outs in fdm/rules/core) all funnel through the
// primitives in this file, which share one worker-count knob and one
// determinism contract:
//
//   - Work is split into FIXED-SIZE chunks whose boundaries depend only on
//     the problem size, never on the worker count.
//   - Each chunk is computed by exactly one goroutine with the same
//     sequential inner loop the serial path uses.
//   - Reductions combine per-chunk partials in chunk-index order on a
//     single goroutine.
//
// Floating-point addition is not associative, so a reduction that
// re-associated terms by worker count would drift between runs. Fixing the
// chunk grid and the combination order makes every result bit-identical
// for any worker count, including 1 — the serial path runs the very same
// chunked loop. The only behavioral change versus a monolithic loop is a
// one-time, worker-independent re-bracketing for vectors longer than one
// chunk.

const (
	// reduceChunk is the fixed reduction-chunk length for Dot/Norm2.
	// Vectors up to this length sum exactly as a plain sequential loop,
	// so the scalar solvers (core's Brent iteration operates on tiny
	// vectors) are bit-for-bit unchanged.
	reduceChunk = 4096
	// spmvRowChunk is the fixed row-block size for parallel CSR·x. Each
	// y[i] is owned by exactly one chunk, so the block size affects only
	// scheduling, never the result. 2048 rows (~10k nonzeros on the FDM
	// stencils) keeps the per-chunk atomic dispatch amortized: the 512-row
	// blocks this started with spent so much time in handout that the
	// parallel path benchmarked 0.77x serial (BENCH_5).
	spmvRowChunk = 2048
	// parallelMinWork is the smallest element (or nonzero) count worth
	// fanning out; below it the chunked loop runs on the calling
	// goroutine. Re-measured with BENCH_5: at 1<<15 the goroutine+dispatch
	// cost still dominated mid-size SpMVs, so the crossover sits at 1<<17.
	parallelMinWork = 1 << 17
)

// workerKnob holds the configured worker count; 0 means "GOMAXPROCS at
// call time".
var workerKnob atomic.Int32

// SetWorkers sets the worker count used by the parallel kernels and
// ParFor. n ≤ 0 restores the default (GOMAXPROCS at call time). Results
// of every kernel are bit-identical for any setting; the knob only trades
// wall-clock for cores.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerKnob.Store(int32(n))
}

// Workers reports the effective worker count.
func Workers() int {
	if w := int(workerKnob.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// parfor runs fn(c) for every c in [0, nChunks), fanning out across at
// most `workers` goroutines. Chunks are handed out through an atomic
// counter; which goroutine computes a chunk is unspecified, so fn must
// write only to per-chunk state (that is what keeps results
// worker-count-independent).
func parfor(nChunks, workers int, fn func(chunk int)) {
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 || nChunks <= 1 {
		for c := 0; c < nChunks; c++ {
			fn(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				fn(c)
			}
		}()
	}
	wg.Wait()
}

// ParFor runs fn(i) for every i in [0, n) across the configured worker
// pool (one index per task — this is the outer-loop primitive for
// independent solves: Monte Carlo samples, sweep points, batched RHS).
// fn must confine its writes to index-i state; under that contract the
// overall result is identical for any worker count.
func ParFor(n int, fn func(i int)) {
	parfor(n, Workers(), fn)
}

// ParForN is ParFor with an explicit worker bound for this call (≤ 0
// falls back to the configured knob).
func ParForN(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = Workers()
	}
	parfor(n, workers, fn)
}

// Dot returns the inner product of two equal-length vectors using the
// fixed-chunk deterministic reduction.
func Dot(a, b []float64) float64 {
	n := len(a)
	if n <= reduceChunk {
		s := 0.0
		for i, v := range a {
			s += v * b[i]
		}
		return s
	}
	nChunks := (n + reduceChunk - 1) / reduceChunk
	if n < parallelMinWork || Workers() == 1 {
		// Inline serial reduction over the same chunk grid, combined in
		// the same chunk-index order as the fan-out below — bit-identical,
		// but with no partials slice the hot path is allocation-free.
		s := 0.0
		for c := 0; c < nChunks; c++ {
			lo := c * reduceChunk
			hi := min(lo+reduceChunk, n)
			cs := 0.0
			for i := lo; i < hi; i++ {
				cs += a[i] * b[i]
			}
			s += cs
		}
		return s
	}
	partials := make([]float64, nChunks)
	parfor(nChunks, Workers(), func(c int) {
		lo := c * reduceChunk
		hi := min(lo+reduceChunk, n)
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		partials[c] = s
	})
	s := 0.0
	for _, p := range partials {
		s += p
	}
	return s
}

// Axpy computes y += alpha·x in place. Each element is owned by exactly
// one chunk, so the parallel path is trivially bit-identical to serial.
func Axpy(alpha float64, x, y []float64) {
	n := len(x)
	if n < parallelMinWork || Workers() == 1 {
		for i, v := range x {
			y[i] += alpha * v
		}
		return
	}
	nChunks := (n + reduceChunk - 1) / reduceChunk
	parfor(nChunks, Workers(), func(c int) {
		lo := c * reduceChunk
		hi := min(lo+reduceChunk, n)
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}

// mulVecRows is the sequential SpMV kernel over a row range.
func (m *CSR) mulVecRows(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// MulVec computes y = M·x. Rows are partitioned into fixed blocks and
// computed independently (each y[i] is produced by one goroutine running
// the same inner loop as the serial path), so the result is bit-identical
// at any worker count.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic("mathx: CSR.MulVec dimension mismatch")
	}
	nnz := len(m.Val)
	if nnz < parallelMinWork || m.N < 2*spmvRowChunk || Workers() == 1 {
		m.mulVecRows(x, y, 0, m.N)
		return
	}
	nChunks := (m.N + spmvRowChunk - 1) / spmvRowChunk
	parfor(nChunks, Workers(), func(c int) {
		lo := c * spmvRowChunk
		hi := min(lo+spmvRowChunk, m.N)
		m.mulVecRows(x, y, lo, hi)
	})
}
