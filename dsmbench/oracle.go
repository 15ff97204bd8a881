package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/core"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/material"
	"dsmtherm/internal/netcheck"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/rules"
	"dsmtherm/internal/server"
)

// The output oracle recomputes every response from the layers' public
// functions in this process, on the same input, after the timed window.
// The engines are bit-deterministic, so the check is exact equality on
// every result field; only the serving flags (cached, coalesced, stale)
// are excluded, because they describe how the daemon answered, not what.

// sameJSON reports whether two values encode to identical JSON. Go's
// float encoding round-trips exactly, so this is bitwise equality of
// every number.
func sameJSON(got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if bytes.Equal(g, w) {
		return nil
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Errorf("oracle mismatch at byte %d: got …%s… want …%s…", i, clip(g, lo, i+40), clip(w, lo, i+40))
}

func clip(b []byte, lo, hi int) []byte { return b[min(lo, len(b)):min(hi, len(b))] }

// resolveTech mirrors the daemon's technology selectors.
func resolveTech(node, gap string) (*ntrs.Technology, error) {
	tech := ntrs.N250()
	if node == "0.10" {
		tech = ntrs.N100()
	}
	if gap != "" {
		d, err := material.DielectricByName(gap)
		if err != nil {
			return nil, err
		}
		tech = tech.WithGapFill(d)
	}
	return tech, nil
}

// rulesEngine answers one rules key through core.SolveCtx and
// rules.GenerateLevelCtx, converted to the response's report units.
func rulesEngine(ctx context.Context, k rulesKey, tr *tracer, parent, round int) (server.RulesResponse, error) {
	tech, err := resolveTech(k.Node, k.Gap)
	if err != nil {
		return server.RulesResponse{}, err
	}
	line, err := tech.Line(k.Level, phys.Microns(2000))
	if err != nil {
		return server.RulesResponse{}, err
	}
	spec := rules.Spec{J0: phys.MAPerCm2(k.J0MA), Tref: phys.CToK(k.TrefC)}
	if err := spec.Validate(); err != nil {
		return server.RulesResponse{}, err
	}
	sp := tr.begin("core.solve", parent, round)
	sol, err := core.SolveCtx(ctx, core.Problem{
		Line: line, Model: *spec.Model, R: k.Duty,
		J0: phys.MAPerCm2(k.J0MA), Tref: phys.CToK(k.TrefC),
	})
	tr.end(sp)
	if err != nil {
		return server.RulesResponse{}, err
	}
	sp = tr.begin("rules.level", parent, round)
	rule, err := rules.GenerateLevelCtx(ctx, tech, k.Level, spec)
	tr.end(sp)
	if err != nil {
		return server.RulesResponse{}, err
	}
	return server.RulesResponse{
		Node: k.Node, Level: k.Level, DutyCycle: k.Duty, J0MA: k.J0MA,
		Solve: server.SolveJSON{
			TmC:           phys.KToC(sol.Tm),
			DeltaT:        sol.DeltaT,
			JpeakMA:       phys.ToMAPerCm2(sol.Jpeak),
			JrmsMA:        phys.ToMAPerCm2(sol.Jrms),
			JavgMA:        phys.ToMAPerCm2(sol.Javg),
			EMOnlyJpeakMA: phys.ToMAPerCm2(sol.EMOnlyJpeak),
			Derating:      sol.DeratingVsNaive,
		},
		Rule: server.LevelRuleJSON{
			Level:                rule.Level,
			Class:                rule.Class.String(),
			SignalJpeakMA:        phys.ToMAPerCm2(rule.SignalJpeak),
			SignalJrmsMA:         phys.ToMAPerCm2(rule.SignalJrms),
			SignalJavgMA:         phys.ToMAPerCm2(rule.SignalJavg),
			SignalTmC:            phys.KToC(rule.SignalTm),
			PowerJMA:             phys.ToMAPerCm2(rule.PowerJ),
			PowerTmC:             phys.KToC(rule.PowerTm),
			HealingLengthUm:      phys.ToMicrons(rule.HealingLength),
			ThermallyLongAboveUm: phys.ToMicrons(rule.ThermallyLongAbove),
			BlechImmortalBelowUm: phys.ToMicrons(rule.BlechImmortalBelow),
			ESDWidthNoDamageUm:   phys.ToMicrons(rule.ESDWidthNoDamage),
			ESDWidthNoOpenUm:     phys.ToMicrons(rule.ESDWidthNoOpen),
		},
	}, nil
}

// checkRules compares a /v1/rules body with the reference.
func checkRules(body []byte, want server.RulesResponse) error {
	var got server.RulesResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("rules body: %v", err)
	}
	got.Cached, got.Coalesced, got.Stale = false, false, false
	return sameJSON(got, want)
}

// netcheckEngine signs a design off through rules.GenerateCtx and
// netcheck.CheckConcurrent, converted to the response's report units.
func netcheckEngine(ctx context.Context, df *netcheck.DesignFile, tr *tracer, parent, round int) (server.NetcheckResponse, error) {
	tech, err := df.Tech()
	if err != nil {
		return server.NetcheckResponse{}, err
	}
	sp := tr.begin("rules.deck", parent, round)
	deck, err := rules.GenerateCtx(ctx, tech, df.Spec())
	tr.end(sp)
	if err != nil {
		return server.NetcheckResponse{}, err
	}
	segs, err := df.MaterializeSegments(deck.Tech)
	if err != nil {
		return server.NetcheckResponse{}, err
	}
	sp = tr.begin("netcheck.check", parent, round)
	rep, err := netcheck.CheckConcurrent(ctx, netcheck.Config{Deck: deck}, segs, runtime.GOMAXPROCS(0))
	tr.end(sp)
	if err != nil {
		return server.NetcheckResponse{}, err
	}
	resp := server.NetcheckResponse{
		Worst:    rep.Worst().String(),
		ByNet:    make(map[string]string, len(rep.ByNet)),
		Findings: make([]server.FindingJSON, 0, len(rep.Findings)),
		Segments: len(segs),
	}
	for net, v := range rep.ByNet {
		resp.ByNet[net] = v.String()
	}
	for _, f := range rep.Findings {
		resp.Findings = append(resp.Findings, server.FindingJSON{
			Net: f.Segment.Net, Segment: f.Segment.Name, Level: f.Segment.Level,
			JpeakMA: phys.ToMAPerCm2(f.Jpeak), JrmsMA: phys.ToMAPerCm2(f.Jrms), JavgMA: phys.ToMAPerCm2(f.Javg),
			Reff: f.Reff, LimitMA: phys.ToMAPerCm2(f.Limit), Margin: f.Margin, TmC: phys.KToC(f.Tm),
			ThermallyShort: f.ThermallyShort, BlechImmortal: f.BlechImmortal,
			Verdict: f.Verdict.String(),
		})
	}
	return resp, nil
}

func checkNetcheck(body []byte, want server.NetcheckResponse) error {
	var got server.NetcheckResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("netcheck body: %v", err)
	}
	got.DeckCached, got.DeckCoalesced, got.DeckStale = false, false, false
	return sameJSON(got, want)
}

// chipEngine runs chipcheck Compile → Solve → Verdicts → Report. It
// also returns the compiled check and field for the per-layer replay.
func chipEngine(ctx context.Context, p chipcheck.Params, tr *tracer, parent, round int) (*chipcheck.Result, *chipcheck.Check, *chipcheck.Field, error) {
	sp := tr.begin("chipcheck.compile", parent, round)
	c, err := chipcheck.Compile(p)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin("chipcheck.solve", parent, round)
	f, err := c.Solve(ctx)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin("chipcheck.verdicts", parent, round)
	vs, err := c.Verdicts(f, 0, c.NumBranches())
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin("chipcheck.report", parent, round)
	res, err := c.Report(f, vs)
	tr.end(sp)
	return res, c, f, err
}

func decodeChip(body []byte) (*chipcheck.Result, error) {
	var got chipcheck.Result
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("chipcheck body: %v", err)
	}
	return &got, nil
}

// lifetimeEngine runs lifetime Compile → SampleRange → BuildReport.
func lifetimeEngine(p lifetime.Params, tr *tracer, parent, round int) (*lifetime.Report, error) {
	sp := tr.begin("lifetime.compile", parent, round)
	m, err := lifetime.Compile(p)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sk := lifetime.NewSketch()
	sp = tr.begin("lifetime.sample", parent, round)
	err = m.SampleRange(sk, 0, m.Samples)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("lifetime.report", parent, round)
	rep, err := m.BuildReport(sk)
	tr.end(sp)
	return rep, err
}

func checkLifetime(body []byte, want *lifetime.Report) error {
	var got lifetime.Report
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("lifetime body: %v", err)
	}
	return sameJSON(&got, want)
}

// parallelDo runs fn(0..n-1) on at most workers goroutines.
func parallelDo(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// refWorkers is the reference-computation parallelism. The chip
// kernels pace themselves and keep a core well under half busy, so two
// solves per core finish the oracle sooner; it runs after the timed
// window, with the daemon stopped.
func refWorkers(nproc int) int { return 2 * nproc }
