package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/fdm"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/server"
)

// The traced run replays the run's seeded inputs through each layer's
// public functions in this process, with a span around every call, and
// reports per-layer metrics. It complements the figures read from
// outside the daemon during the untraced run (/metrics deltas, /proc).

const (
	tracedRules  = 200 // /v1/rules requests replayed
	tracedRounds = 2   // signoff rounds replayed
	spmvReps     = 50
	cgRtol       = 1e-10 // relative residual target of the mathx CG probe
	sheetCond    = 0.015 // chipcheck's default sheet conductance, W/K per square
	sinkCoeff    = 1e4   // chipcheck's default package film coefficient, W/(m²·K)
)

// layers in report order; every span name starts with one of them.
var layers = []string{"bench", "server", "core", "rules", "netcheck", "chipcheck", "powergrid", "fdm", "mathx", "lifetime", "jobs"}

// serveFunc answers one request through an in-process handler.
type serveFunc func(path string, body []byte) (status int, resp []byte)

func (b *bench) traced(u *untracedRun) error {
	b.fromOutside(u)

	// The in-process server has caching off, so every handler call does
	// the same work as the engine call it is compared with.
	h := server.New(server.Config{CacheEntries: -1}).Handler()
	serve := func(path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	tr := newTracer()
	t0 := time.Now()
	overhead := b.tracedRules(tr, serve)
	if err := b.tracedRounds(tr, serve); err != nil {
		return err
	}
	if err := b.tracedKernels(tr); err != nil {
		return err
	}
	if err := b.tracedJobs(tr); err != nil {
		return err
	}

	wall := time.Since(t0)
	b.phase("traced", t0)
	self := layerSelfTimes(tr.spans)
	for _, l := range layers {
		b.report("self_ms."+l, ms(self[l]), "ms", "span self time summed over the traced replay", true)
	}
	b.report("trace.overhead_pct", overhead, "%",
		fmt.Sprintf("rules replay traced vs untraced, %d requests each", tracedRules), true)
	path := filepath.Join(b.o.out, fmt.Sprintf("spans-%s-%d.jsonl", b.o.workload, b.o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("traced run: %d spans in %.3gs, written to %s\n", len(tr.spans), wall.Seconds(), path)
	return nil
}

// tracedRules replays the first /v1/rules requests of the run's key
// stream. Every request runs twice, once untraced and once traced,
// alternating which goes first; it returns how much longer, in percent,
// the traced passes took in total.
func (b *bench) tracedRules(tr *tracer, serve serveFunc) float64 {
	ctx := context.Background()
	stream := newRulesStream(b.o.seed)
	var plain, traced time.Duration
	var handlerSelf []float64
	for i := 0; i < tracedRules; i++ {
		k := keySpace()[stream.next()]
		body := k.body()
		once := func(t *tracer) (server.RulesResponse, int, []byte, error) {
			root := t.begin("bench.rules", -1, i)
			sp := t.begin("server.rules", root, i)
			st, got := serve("/v1/rules", body)
			t.end(sp)
			want, err := rulesEngine(ctx, k, t, root, i)
			t.end(root)
			return want, st, got, err
		}
		var want server.RulesResponse
		var st int
		var got []byte
		var err error
		for pass := 0; pass < 2; pass++ {
			start := time.Now()
			if (pass+i)%2 == 0 {
				once(nil)
				plain += time.Since(start)
			} else {
				want, st, got, err = once(tr)
				traced += time.Since(start)
			}
		}
		b.checkTraced(st, got, err, func() error { return checkRules(got, want) }, "rules")
		handlerSelf = append(handlerSelf, float64(tr.last("server.rules").dur()-tr.last("core.solve").dur()-tr.last("rules.level").dur()))
	}
	b.report("server.handler_self_us.rules", median(handlerSelf)/1e3, "us",
		"Handler().ServeHTTP minus core.SolveCtx+rules.GenerateLevelCtx, two separately timed calls", true)
	b.report("core.solve_us", median(tr.durations("core.solve"))/1e3, "us", fmt.Sprintf("SolveCtx p50, n=%d", tracedRules), true)
	b.report("rules.level_us", median(tr.durations("rules.level"))/1e3, "us", fmt.Sprintf("GenerateLevelCtx p50, n=%d", tracedRules), true)
	return 100 * float64(traced-plain) / float64(plain)
}

// tracedRounds replays the run's first signoff rounds: each route's
// in-process handler, then the same input through the engines, and the
// coupled solve's two inner solvers on the round's grid.
func (b *bench) tracedRounds(tr *tracer, serve serveFunc) error {
	ctx := context.Background()
	var netSelf, chipSelf, lifeSelf []float64
	var check *chipcheck.Check
	var field *chipcheck.Field
	for r := 0; r < tracedRounds; r++ {
		id := 1000 + r
		in := newChipRound(b.o.seed, r)
		root := tr.begin("bench.round", -1, id)

		netBody, _ := json.Marshal(&in.Design)
		sp := tr.begin("server.netcheck", root, id)
		st, got := serve("/v1/netcheck", netBody)
		tr.end(sp)
		want, err := netcheckEngine(ctx, &in.Design, tr, root, id)
		b.checkTraced(st, got, err, func() error { return checkNetcheck(got, want) }, "netcheck")
		netSelf = append(netSelf, float64(tr.spans[sp].dur()-tr.last("rules.deck").dur()-tr.last("netcheck.check").dur()))

		chipBody, _ := json.Marshal(&in.Chip)
		sp = tr.begin("server.chipcheck", root, id)
		st, got = serve("/v1/chipcheck", chipBody)
		tr.end(sp)
		eng := tr.begin("chipcheck.engine", root, id)
		res, c, f, err := chipEngine(ctx, in.Chip, tr, eng, id)
		tr.end(eng)
		b.checkTraced(st, got, err, func() error { return compareChip(got, res, nil) }, "chipcheck")
		chipSelf = append(chipSelf, float64(tr.spans[sp].dur()-tr.spans[eng].dur()))
		if err != nil {
			tr.end(root)
			continue
		}
		check, field = c, f

		// The coupled solve's two inner solvers, on this check's grid.
		sp = tr.begin("powergrid.nodal_build", root, id)
		nodal, err := c.Grid.NewNodal(c.Loads)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("powergrid.nodal_solve", root, id)
			_, err = nodal.SolveInto(ctx, f.Temps, nil)
			tr.end(sp)
		}
		if err != nil {
			return fmt.Errorf("traced powergrid: %w", err)
		}
		sp = tr.begin("fdm.sheet_build", root, id)
		sheet, err := fdm.NewSheetSolver(c.Grid.Nx, c.Grid.Ny, c.Grid.PitchX, c.Grid.PitchY, sheetCond, sinkCoeff)
		tr.end(sp)
		if err == nil {
			rng := rand.New(rand.NewSource(in.Seed))
			power := make([]float64, c.Grid.Nx*c.Grid.Ny)
			for i := range power {
				power[i] = 1e-4 * (1 + rng.Float64())
			}
			sp = tr.begin("fdm.sheet_solve", root, id)
			err = sheet.Solve(power, power)
			tr.end(sp)
		}
		if err != nil {
			return fmt.Errorf("traced fdm: %w", err)
		}

		life := censusFromSegments(res.Segments, in.Seed)
		lifeBody, _ := json.Marshal(&life)
		sp = tr.begin("server.lifetime", root, id)
		st, got = serve("/v1/lifetime", lifeBody)
		tr.end(sp)
		eng = tr.begin("lifetime.engine", root, id)
		rep, err := lifetimeEngine(life, tr, eng, id)
		tr.end(eng)
		b.checkTraced(st, got, err, func() error { return checkLifetime(got, rep) }, "lifetime")
		lifeSelf = append(lifeSelf, float64(tr.spans[sp].dur()-tr.spans[eng].dur()))
		tr.end(root)
	}
	checkMs := msOf(tr.durations("netcheck.check"))
	b.report("server.handler_self_us.netcheck", median(netSelf)/1e3, "us", "ServeHTTP minus rules.GenerateCtx+netcheck.CheckConcurrent, separately timed", true)
	b.report("server.handler_self_us.chipcheck", median(chipSelf)/1e3, "us", "ServeHTTP minus Compile→Solve→Verdicts→Report, separately timed", true)
	b.report("server.handler_self_us.lifetime", median(lifeSelf)/1e3, "us", "ServeHTTP minus Compile→SampleRange→BuildReport, separately timed", true)
	b.report("netcheck.check_ms", median(checkMs), "ms", fmt.Sprintf("CheckConcurrent, %d segments, %d workers", netSegments, b.nproc), true)
	b.report("netcheck.segments_per_s", netSegments/(median(checkMs)/1e3), "1/s", "CheckConcurrent", true)
	for _, name := range []string{"compile", "solve", "verdicts", "report"} {
		b.report("chipcheck."+name+"_ms", median(msOf(tr.durations("chipcheck."+name))), "ms", fmt.Sprintf("%dx%d, n=%d", chipNx, chipNy, tracedRounds), true)
	}
	if field == nil || check == nil {
		return fmt.Errorf("traced chipcheck failed: %v", b.errs)
	}
	b.report("chipcheck.passes", float64(field.Iterations), "count", "coupled fixed-point passes (Field.Iterations), last round", true)
	b.report("chipcheck.solve_cpu_util", tr.cpuUtil("chipcheck.solve"), "ratio", "process CPU ÷ wall across Solve (max = nproc)", true)
	b.report("powergrid.nodal_build_ms", median(msOf(tr.durations("powergrid.nodal_build"))), "ms", "Grid.NewNodal on Check.Grid/Loads", true)
	b.report("powergrid.nodal_solve_ms", median(msOf(tr.durations("powergrid.nodal_solve"))), "ms", "Nodal.SolveInto at the solved temperatures", true)
	b.report("fdm.sheet_build_ms", median(msOf(tr.durations("fdm.sheet_build"))), "ms", "NewSheetSolver at the check's tile grid", true)
	b.report("fdm.sheet_solve_ms", median(msOf(tr.durations("fdm.sheet_solve"))), "ms", "SheetSolver.Solve", true)
	b.report("lifetime.compile_ms", median(msOf(tr.durations("lifetime.compile"))), "ms", "", true)
	b.report("lifetime.sample_ns", median(tr.durations("lifetime.sample"))/lifetimeSamples, "ns", fmt.Sprintf("SampleRange ÷ %d samples", lifetimeSamples), true)
	b.report("lifetime.report_ms", median(msOf(tr.durations("lifetime.report"))), "ms", "", true)
	return nil
}

// last returns the most recent span with this name.
func (t *tracer) last(name string) span {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return t.spans[i]
		}
	}
	return span{}
}

// cpuUtil is CPU ÷ wall summed over every span with this name.
func (t *tracer) cpuUtil(name string) float64 {
	var cpu, wall time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			cpu += s.CPU
			wall += s.dur()
		}
	}
	return ratio(float64(cpu), float64(wall))
}

// checkTraced counts one in-process handler call against its engine.
func (b *bench) checkTraced(status int, body []byte, engineErr error, cmp func() error, what string) {
	b.attempted++
	switch {
	case engineErr != nil:
		b.fail("traced %s reference: %v", what, engineErr)
	case status != http.StatusOK:
		b.fail("traced %s handler: status %d: %s", what, status, clip(body, 0, 200))
	default:
		if err := cmp(); err != nil {
			b.fail("traced %s: %v", what, err)
		}
	}
}

// laplacian5 is the 5-point Laplacian (Dirichlet-anchored: diagonal 4
// plus a small shift) on an nx×ny grid, built directly in CSR.
func laplacian5(nx, ny int) *mathx.CSR {
	n := nx * ny
	a := &mathx.CSR{N: n, RowPtr: make([]int, n+1)}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			p := j*nx + i
			add := func(q int, v float64) { a.ColIdx = append(a.ColIdx, q); a.Val = append(a.Val, v) }
			if j > 0 {
				add(p-nx, -1)
			}
			if i > 0 {
				add(p-1, -1)
			}
			add(p, 4.01)
			if i+1 < nx {
				add(p+1, -1)
			}
			if j+1 < ny {
				add(p+nx, -1)
			}
			a.RowPtr[p+1] = len(a.ColIdx)
		}
	}
	return a
}

// tracedKernels times the mathx kernels on a 5-point Laplacian with the
// signoff workload's grid shape.
func (b *bench) tracedKernels(tr *tracer) error {
	a := laplacian5(chipNx, chipNy)
	n, nnz := a.N, len(a.Val)
	rng := rand.New(rand.NewSource(b.o.seed))
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	x, y := make([]float64, n), make([]float64, n)
	root := tr.begin("mathx.kernels", -1, 2000)
	for r := 0; r < spmvReps; r++ {
		sp := tr.begin("mathx.spmv", root, 2000)
		a.MulVec(rhs, y)
		tr.end(sp)
	}
	ic0, err := mathx.NewIC0(a)
	if err != nil {
		return err
	}
	sp := tr.begin("mathx.cg", root, 2000)
	cg := mathx.SolveCGPrec(a, rhs, x, cgRtol, 0, ic0)
	tr.end(sp)
	if !cg.Converged {
		return fmt.Errorf("traced CG did not converge: %+v", cg)
	}
	sp = tr.begin("mathx.bandchol", root, 2000)
	chol, err := mathx.NewBandCholesky(a, chipNx)
	if err == nil {
		chol.Solve(rhs, y)
	}
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return err
	}
	spmvNs := median(tr.durations("mathx.spmv"))
	// Bytes a CSR SpMV must touch: values and column indices per
	// nonzero, the row pointers, x read once and y written once.
	bytesMoved := float64(nnz*(8+8) + (n+1)*8 + 2*n*8)
	b.report("mathx.spmv_us", spmvNs/1e3, "us", fmt.Sprintf("CSR.MulVec, %dx%d 5-point Laplacian, p50 of %d", chipNx, chipNy, spmvReps), true)
	b.report("mathx.spmv_gbps_computed", bytesMoved/spmvNs, "GB/s", "computed from CSR sizes, not measured traffic", true)
	b.report("mathx.cg_ms", ms(tr.last("mathx.cg").dur()), "ms", fmt.Sprintf("SolveCGPrec with IC(0), rtol %g", cgRtol), true)
	b.report("mathx.cg_iters", float64(cg.Iterations), "count", fmt.Sprintf("IC(0) CG iterations to rtol %g", cgRtol), true)
	b.report("mathx.bandchol_ms", ms(tr.last("mathx.bandchol").dur()), "ms", "NewBandCholesky + Solve", true)
	b.report("mathx.kernel_cpu_util", tr.cpuUtil("mathx.kernels"), "ratio", "process CPU ÷ wall across the kernel probes (max = nproc)", true)
	return nil
}

// tracedJobs runs the first bulk job of the seed through two in-process
// job managers, one journaling to disk and one in memory, and reports
// the journaled job time and the journal's share of it.
func (b *bench) tracedJobs(tr *tracer) error {
	p := bulkJob(b.o.seed, 0)
	var results [2][]byte
	var times [2]time.Duration
	for i, name := range []string{"jobs.job_memory", "jobs.job_journal"} {
		cfg := jobs.Config{}
		if i == 1 {
			cfg.Dir = filepath.Join(b.dir, "traced-jobs")
			if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
				return err
			}
		}
		m, err := jobs.New(cfg)
		if err != nil {
			return err
		}
		sp := tr.begin(name, -1, 3000+i)
		v, err := m.Submit(jobs.SubmitRequest{Type: jobs.TypeChipcheck, Chipcheck: &p})
		if err == nil {
			var done <-chan struct{}
			if done, err = m.Done(v.ID); err == nil {
				<-done
				results[i], err = m.Result(v.ID)
			}
		}
		tr.end(sp)
		m.Stop()
		b.attempted++
		if err != nil {
			b.fail("traced %s: %v", name, err)
			continue
		}
		times[i] = tr.spans[sp].dur()
	}
	if !bytes.Equal(results[0], results[1]) {
		b.fail("traced jobs: journaled and in-memory results differ")
	}
	b.report("jobs.job_s", times[1].Seconds(), "s", fmt.Sprintf("in-process Manager with a journal, %dx%d chipcheck", bulkNx, bulkNy), true)
	b.report("jobs.journal_overhead_s", (times[1] - times[0]).Seconds(), "s", "journaled minus in-memory job, same params", true)
	return nil
}

// fromOutside reports the per-layer figures read from outside the
// daemon during the untraced run: /metrics deltas and /proc counters.
func (b *bench) fromOutside(u *untracedRun) {
	m0, m1 := u.m0, u.m1
	hits, misses := float64(m1.Cache.Hits-m0.Cache.Hits), float64(m1.Cache.Misses-m0.Cache.Misses)
	rulesN, _ := routeDelta(m0, m1, "/v1/rules")
	route := "/v1/rules"
	if b.o.workload == wlChipSignoff {
		route = "/v1/chipcheck"
	}
	routeN, routeAvg := routeDelta(m0, m1, route)
	b.report("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("solve/deck cache, %.0f lookups", hits+misses), true)
	b.report("server.coalesced_share", ratio(float64(m1.Cache.Coalesced-m0.Cache.Coalesced), float64(rulesN)), "ratio", "coalesced answers ÷ /v1/rules requests", true)
	b.report("server.route_avg_ms", routeAvg, "ms", fmt.Sprintf("server-side mean latency on %s, n=%d", route, routeN), true)
	rej := func(m *metricsSnapshot) uint64 {
		return m.Admission.RejectedQueueFull + m.Admission.RejectedQueueWait + m.Admission.RejectedDraining
	}
	b.report("server.rejected", float64(rej(m1)-rej(m0)), "count", "admission queueFull + queueWait + draining", true)
	b.report("mathx.numeric_fallbacks", float64(m1.Resilience.Numeric.FallbackSolves-m0.Resilience.Numeric.FallbackSolves), "count", "resilience.numeric fallbackSolves", true)
	var chunks, ckpts, retries float64
	if m0.Jobs != nil && m1.Jobs != nil {
		j0, j1 := m0.Jobs.Manager, m1.Jobs.Manager
		chunks, ckpts, retries = float64(j1.ChunksRun-j0.ChunksRun), float64(j1.Checkpoints-j0.Checkpoints), float64(j1.ChunkRetries-j0.ChunkRetries)
	}
	b.report("jobs.chunks_run", chunks, "count", "", true)
	b.report("jobs.checkpoints", ckpts, "count", "", true)
	b.report("jobs.chunk_retries", retries, "count", "", true)
	cores := u.window.Seconds() * float64(b.nproc)
	b.report("dsmthermd.cpu_util", u.daemonCPU.Seconds()/cores, "ratio", "daemon utime+stime ÷ (wall × nproc)", true)
	b.report("loadgen.late_p99_ms", quantile(u.late, 0.99), "ms", fmt.Sprintf("send time minus earliest possible send, n=%d", len(u.late)), true)
	b.report("loadgen.cpu_util", u.genCPU.Seconds()/cores, "ratio", "generator CPU ÷ (wall × nproc)", true)
}
