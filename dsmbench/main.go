// Command dsmbench is the end-to-end benchmark of dsmthermd.
//
// It starts a freshly built dsmthermd (default flags plus -jobs
// -jobs-dir) as a subprocess, drives one workload over loopback HTTP
// from at most nproc connections, checks every response against the
// engines run in this process, and prints one JSON result line. With
// -trace 1 it also replays the run's seeded inputs through each layer's
// public functions under spans and reports per-layer metrics instead.
//
//	dsmbench -daemon .bench_build/dsmthermd -workload rules_openloop -seed 1 -seconds 15 -trace 0
//
// See README.md for the workloads, the metrics and the map from layer
// metrics to the end-to-end metrics they should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // dsmthermd binary
	out      string // scratch directory (journals, span dumps)
	root     string // source tree the binaries were built from
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&o.daemon, "daemon", "", "dsmthermd binary")
	flag.StringVar(&o.out, "out", ".bench_build", "scratch directory")
	flag.StringVar(&o.root, "root", ".", "source tree the binaries were built from")
	flag.Parse()
	o.trace = trace == 1
	// The generator keeps every response for the oracle; a lazier GC
	// keeps its collections from competing with the daemon for CPU.
	debug.SetGCPercent(400)
	if !slices.Contains(workloads, o.workload) || o.daemon == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// bench carries one run's state.
type bench struct {
	o     options
	nproc int
	dir   string
	flags []string
	// tally of every attempted operation and every failure (errors,
	// refusals, timeouts, oracle mismatches).
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	human             []string
	phases            []string // wall time of each benchmark phase
}

// phase records how long a benchmark phase took since start.
func (b *bench) phase(name string, start time.Time) {
	b.phases = append(b.phases, fmt.Sprintf("%s %.3gs", name, time.Since(start).Seconds()))
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.errs) < 10 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// report records a metric for the JSON line (when json is set) and the
// human-readable summary.
func (b *bench) report(name string, v float64, unit, note string, json bool) {
	if json {
		b.metrics[name] = metric{Value: v, Unit: unit}
	}
	b.human = append(b.human, fmt.Sprintf("  %-34s %14.6g %-7s %s", name, v, unit, note))
}

func run(o options) (*result, error) {
	b := &bench{o: o, nproc: runtime.NumCPU(), metrics: map[string]metric{}}
	var err error
	if err = os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if b.dir, err = os.MkdirTemp(o.out, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	b.flags = []string{"-jobs", "-jobs-dir", filepath.Join(b.dir, "jobs")}

	ctx := runContext(o, b.nproc)
	fmt.Printf("context %s\n", mustJSON(ctx))

	u, err := b.untraced()
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := b.traced(u); err != nil {
			return nil, err
		}
	}
	fmt.Printf("workload %s seed %d: %d attempted, %d failed (%.4g failed_frac)\n",
		o.workload, o.seed, b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1)))
	for _, e := range b.errs {
		fmt.Println("  error:", e)
	}
	for _, h := range b.human {
		fmt.Println(h)
	}
	fmt.Println("phases:", strings.Join(b.phases, ", "))
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}, nil
}

func mustJSON(v any) string {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(out)
}

// setupBoots is how many times set-up is timed per run; setup_s is the
// median, so one slow exec does not move it.
const setupBoots = 31

// boot starts a daemon and times exec → first 200 on /readyz → one
// warm-up call per route the workload uses.
func (b *bench) boot(k int) (*daemon, time.Duration, error) {
	flags := append([]string(nil), b.flags...)
	flags[2] = filepath.Join(b.dir, fmt.Sprintf("jobs-%d", k))
	t0 := time.Now()
	d, err := startDaemon(b.o.daemon, flags)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(d.url(""), b.nproc)
	defer c.close()
	if err := d.waitReady(c.hc, 30*time.Second); err != nil {
		d.stop()
		return nil, 0, err
	}
	if err := warmUp(c, b.o.workload); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up: %w (daemon log: %s)", err, d.stderrTail())
	}
	return d, time.Since(t0), nil
}

// untracedRun is what the untraced run measured, kept for the oracle
// and for the per-layer report.
type untracedRun struct {
	window       time.Duration
	m0, m1       *metricsSnapshot
	daemonCPU    time.Duration
	genCPU       time.Duration
	open, closed [][]call      // rules phases, call times relative to each phase
	openPhase    time.Duration // length of each open-loop phase
	closedPhase  time.Duration // length of each closed-loop phase
	bodies       *bodyStore    // distinct /v1/rules bodies per key
	rounds       []round
	bulk         []bulkRun
	rulesStart   time.Duration // open-loop phase start, offset from bulk origin
	rulesEnd     time.Duration
	hwmMB        float64
	late         []float64 // generator lateness of every call, ms
}

func (b *bench) untraced() (*untracedRun, error) {
	o := b.o
	var boots []float64
	var d *daemon
	tSetup := time.Now()
	for k := 0; k < setupBoots; k++ {
		dk, dur, err := b.boot(k)
		if err != nil {
			return nil, err
		}
		boots = append(boots, dur.Seconds())
		if k < setupBoots-1 {
			dk.stop()
		} else {
			d = dk
		}
	}
	defer d.stop()
	b.phase("setup", tSetup)

	c := newClient(d.url(""), b.nproc)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds)*time.Second+2*time.Minute)
	defer cancel()
	u := &untracedRun{}
	var err error
	if u.m0, err = d.metrics(ctx, c.hc); err != nil {
		return nil, err
	}
	// The pool defaults to one worker per P, so its size is the daemon's
	// GOMAXPROCS.
	fmt.Printf("daemon pid %d: worker pool %d\n", d.pid(), u.m0.Pool.Size)
	total := time.Duration(o.seconds) * time.Second
	stream := newRulesStream(o.seed)
	bodies := make([][]byte, len(keySpace()))
	for k, key := range keySpace() {
		bodies[k] = key.body()
	}
	rulesBody := func(k int) []byte { return bodies[k] }
	u.bodies = newBodyStore()
	cpu0, _ := procCPU(d.pid())
	gen0 := selfCPU()
	t0 := time.Now()
	switch o.workload {
	case wlRulesOpenLoop:
		// Open- and closed-loop phases alternate in cycles of 3 s + 2 s,
		// so both metrics sample the whole run, not one stretch of it.
		cycles := max(1, o.seconds/5)
		u.openPhase, u.closedPhase = total*3/5/time.Duration(cycles), total*2/5/time.Duration(cycles)
		for i := 0; i < cycles; i++ {
			u.open = append(u.open, runOpenLoop(ctx, c, newOpenLoopPlan(stream, rulesRate, u.openPhase), b.nproc, "/v1/rules", rulesBody, u.bodies))
			u.closed = append(u.closed, runClosedLoop(ctx, c, stream, b.nproc, u.closedPhase, "/v1/rules", rulesBody, u.bodies))
		}
	case wlChipSignoff:
		u.rounds = runSignoff(ctx, c, o.seed, total)
	case wlRulesBulk:
		stop, started := make(chan struct{}), make(chan struct{})
		done := make(chan []bulkRun)
		go func() { done <- runBulk(ctx, c, o.seed, t0, stop, started) }()
		<-started
		u.rulesStart = time.Since(t0)
		u.openPhase = total
		u.open = [][]call{runOpenLoop(ctx, c, newOpenLoopPlan(stream, bulkRulesRate, total), b.nproc, "/v1/rules", rulesBody, u.bodies)}
		u.rulesEnd = time.Since(t0)
		close(stop)
		u.bulk = <-done
	}
	u.window = time.Since(t0)
	u.genCPU = selfCPU() - gen0
	cpu1, _ := procCPU(d.pid())
	u.daemonCPU = cpu1 - cpu0
	if u.m1, err = d.metrics(ctx, c.hc); err != nil {
		return nil, err
	}
	if u.hwmMB, err = procHWM(d.pid()); err != nil {
		return nil, err
	}
	d.stop()
	b.phase("measure", t0)

	// Everything below runs after the daemon has exited: references are
	// computed outside the timed window.
	tOracle := time.Now()
	if err := b.checkOutputs(u); err != nil {
		return nil, err
	}
	b.phase("oracle", tOracle)
	if err := b.validate(u); err != nil {
		return nil, err
	}
	b.endToEnd(u, boots)
	return u, nil
}

// maxLateP99 bounds how far behind its own schedule the generator may
// run (p99 of send time minus the time a worker could have sent). Past
// it the run measures the generator, not the daemon, and is refused.
const maxLateP99 = 20 * time.Millisecond

// validate refuses runs that measured nothing or measured the
// generator.
func (b *bench) validate(u *untracedRun) error {
	// Lateness is checked against the open-loop schedule. Closed loops
	// have no schedule: there it is the generator's own turnaround
	// between a client becoming free and its next send (building inputs,
	// decoding the previous response), reported but not a validity test.
	sched := flat(u.open)
	if len(sched) == 0 {
		sched = flat(u.closed)
		for _, r := range u.rounds {
			sched = append(sched, r.Net, r.Chip, r.Lifetime)
		}
	}
	for _, c := range sched {
		u.late = append(u.late, ms(c.late()))
	}
	if len(u.late) == 0 {
		return errors.New("invalid run: no requests completed")
	}
	if p := quantile(u.late, 0.99); len(u.open) > 0 && p > ms(maxLateP99) {
		return fmt.Errorf("invalid run: generator fell behind its schedule (late p99 %.3g ms > %v)", p, maxLateP99)
	}
	switch b.o.workload {
	case wlRulesOpenLoop:
		if len(flat(u.closed)) == 0 {
			return errors.New("invalid run: closed-loop phases sent nothing")
		}
	case wlChipSignoff:
		if len(u.rounds) < 3 {
			return fmt.Errorf("invalid run: %d signoff rounds", len(u.rounds))
		}
	case wlRulesBulk:
		// A bulk job must have been running for the whole rules phase:
		// the first one was seen running before the phase began, each
		// next one was submitted as soon as its predecessor finished,
		// and the last one outlived the phase.
		if !slices.ContainsFunc(u.bulk, func(j bulkRun) bool { return j.Running != 0 && j.Running <= u.rulesStart }) {
			return errors.New("invalid run: no bulk job running when the rules phase began")
		}
		for i := 1; i < len(u.bulk); i++ {
			if gap := u.bulk[i].Submitted - u.bulk[i-1].Done; gap > 4*bulkPoll {
				return fmt.Errorf("invalid run: %v without a bulk job between jobs %d and %d", gap, i-1, i)
			}
		}
		if last := u.bulk[len(u.bulk)-1]; !last.Cancelled && last.Done < u.rulesEnd {
			return errors.New("invalid run: bulk jobs stopped before the rules phase ended")
		}
		if completedJobs(u.bulk) == 0 {
			return errors.New("invalid run: no bulk job completed")
		}
	}
	return nil
}

// flat concatenates phases.
func flat(phases [][]call) []call {
	var out []call
	for _, p := range phases {
		out = append(out, p...)
	}
	return out
}

func completedJobs(bs []bulkRun) int {
	n := 0
	for _, j := range bs {
		if !j.Cancelled && j.Err == nil {
			n++
		}
	}
	return n
}

// endToEnd derives the end-to-end metrics. The JSON names are the same
// on every workload (see README.md for what each means where); the
// summary also prints the per-workload names with sample counts.
func (b *bench) endToEnd(u *untracedRun, boots []float64) {
	js := !b.o.trace
	b.report("setup_s", median(boots), "s", fmt.Sprintf("median of %d boots (%.3g–%.3g s): exec → /readyz 200 → warm-up calls",
		len(boots), slices.Min(boots), slices.Max(boots)), js)
	switch b.o.workload {
	case wlRulesOpenLoop, wlRulesBulk:
		due := func(c *call) time.Duration { return c.Due }
		lat := func(c *call) float64 { return ms(c.latency()) }
		pct := func(q float64) func([]float64) float64 { return func(v []float64) float64 { return quantile(v, q) } }
		p50, wins := windowed(u.open, u.openPhase, due, lat, median)
		p90, _ := windowed(u.open, u.openPhase, due, lat, pct(0.90))
		var all []float64
		for _, c := range flat(u.open) {
			all = append(all, lat(&c))
		}
		rate := float64(len(u.open[0])) / u.openPhase.Seconds()
		note := fmt.Sprintf("open loop at %g/s from due time, median over %d windows of %v, n=%d", rate, wins, statWindow, len(all))
		b.report("rules_p50_ms", p50, "ms", note, false)
		b.report("rules_p90_ms", p90, "ms", note, false)
		b.report("rules_p99_ms", quantile(all, 0.99), "ms", fmt.Sprintf("open loop at %g/s from due time, whole phase, n=%d", rate, len(all)), false)
		if b.o.workload == wlRulesOpenLoop {
			b.report("p50_ms", p50, "ms", "= rules_p50_ms", js)
			b.report("tail_ms", p90, "ms", "= rules_p90_ms", js)
			ok := make([][]call, len(u.closed))
			n := 0
			for i, phase := range u.closed {
				for _, c := range phase {
					if c.ok() {
						ok[i] = append(ok[i], c)
						n++
					}
				}
			}
			rps, wins := windowed(ok, u.closedPhase, func(c *call) time.Duration { return c.Done }, lat,
				func(v []float64) float64 { return float64(len(v)) / statWindow.Seconds() })
			note := fmt.Sprintf("closed loop, %d clients, median over %d windows of %v, n=%d", b.nproc, wins, statWindow, n)
			b.report("throughput_per_s", rps, "1/s", "= rules_capacity_rps, "+note, js)
			b.report("rules_capacity_rps", rps, "req/s", note, false)
		} else {
			// The gated figures are the bulk jobs': the rules latencies
			// above move with the host's load between runs by more than
			// any usable bound (see README.md), the paced chip kernels do
			// not.
			var jobMs []float64
			var first, last time.Duration
			for i, j := range u.bulk {
				if i == 0 {
					first = j.Submitted
				}
				if !j.Cancelled && j.Err == nil {
					jobMs = append(jobMs, ms(j.elapsed()))
					last = j.Done
				}
			}
			note := fmt.Sprintf("bulk chipcheck job, submit → done by %v polling, n=%d", bulkPoll, len(jobMs))
			b.report("p50_ms", median(jobMs), "ms", "= bulk_job_p50_s × 1000, "+note, js)
			b.report("tail_ms", quantile(jobMs, 0.9), "ms", "p90 of jobs, "+note, js)
			b.report("throughput_per_s", float64(len(jobMs))/(last-first).Seconds(), "1/s", "bulk jobs completed per second, "+note, js)
			b.report("bulk_job_p50_s", median(jobMs)/1000, "s", note, false)
		}
	case wlChipSignoff:
		var rounds, net, chip, life []float64
		for _, r := range u.rounds {
			if r.ok() {
				rounds = append(rounds, ms(r.end()-r.start()))
				net = append(net, ms(r.Net.Done-r.Net.Sent))
				chip = append(chip, ms(r.Chip.Done-r.Chip.Sent))
				life = append(life, ms(r.Lifetime.Done-r.Lifetime.Sent))
			}
		}
		n := len(rounds)
		note := fmt.Sprintf("netcheck → chipcheck → lifetime round, n=%d", n)
		b.report("p50_ms", median(rounds), "ms", "= signoff_round_p50_s × 1000, "+note, js)
		b.report("tail_ms", quantile(rounds, 0.9), "ms", "p90 of rounds, "+note, js)
		span := u.rounds[len(u.rounds)-1].end() - u.rounds[0].start()
		b.report("throughput_per_s", float64(n)/span.Seconds(), "1/s", "signoff rounds per second, "+note, js)
		b.report("signoff_round_p50_s", median(rounds)/1000, "s", note, false)
		b.report("netcheck_p50_ms", median(net), "ms", fmt.Sprintf("%d segments, n=%d", netSegments, n), false)
		b.report("chipcheck_p50_ms", median(chip), "ms", fmt.Sprintf("%dx%d grid with segments, n=%d", chipNx, chipNy, n), false)
		b.report("lifetime_p50_ms", median(life), "ms", fmt.Sprintf("%d samples, n=%d", lifetimeSamples, n), false)
	}
	b.report("daemon_rss_mb", u.hwmMB, "MiB", "daemon VmHWM at the end of the workload", js)
	b.report("failed_frac", float64(b.failed)/float64(max(b.attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d attempted (also the result's failed/attempted)", b.failed, b.attempted), false)
}

// checkOutputs runs the oracle over every response of the untraced run.
func (b *bench) checkOutputs(u *untracedRun) error {
	ctx := context.Background()
	// /v1/rules: one reference per key answered; each distinct body of a
	// key is compared once and every call that got those bytes shares
	// the verdict.
	keys := make([]int, 0, len(u.bodies.variants))
	for k := range u.bodies.variants {
		keys = append(keys, k)
	}
	verdicts := make([][]error, len(keys))
	parallelDo(len(keys), b.nproc, func(i int) {
		want, err := rulesEngine(ctx, keySpace()[keys[i]], nil, -1, 0)
		for _, body := range u.bodies.variants[keys[i]] {
			if err != nil {
				verdicts[i] = append(verdicts[i], fmt.Errorf("reference for key %d: %v", keys[i], err))
			} else {
				verdicts[i] = append(verdicts[i], checkRules(body, want))
			}
		}
	})
	verdictOf := make(map[int][]error, len(keys))
	for i, k := range keys {
		verdictOf[k] = verdicts[i]
	}
	calls := append(flat(u.open), flat(u.closed)...)
	b.attempted += len(calls)
	for _, c := range calls {
		b.checkCall(&c, "/v1/rules", func([]byte) error { return verdictOf[c.Key][c.Variant] })
	}

	// Signoff rounds: netcheck, chipcheck and lifetime references.
	type roundRefs struct{ errs [3]error }
	rr := make([]roundRefs, len(u.rounds))
	parallelDo(len(u.rounds), refWorkers(b.nproc), func(i int) {
		r := &u.rounds[i]
		if r.Net.ok() {
			want, err := netcheckEngine(ctx, &r.In.Design, nil, -1, i)
			if err == nil {
				err = checkNetcheck(r.Net.Body, want)
			}
			rr[i].errs[0] = err
		}
		if r.Chip.ok() {
			res, _, _, err := chipEngine(ctx, r.In.Chip, nil, -1, i)
			rr[i].errs[1] = compareChip(r.Chip.Body, res, err)
		}
		if r.Lifetime.ok() {
			rep, err := lifetimeEngine(r.Life, nil, -1, i)
			if err == nil {
				err = checkLifetime(r.Lifetime.Body, rep)
			}
			rr[i].errs[2] = err
		}
	})
	for i := range u.rounds {
		r := &u.rounds[i]
		for k, cl := range []*call{&r.Net, &r.Chip, &r.Lifetime} {
			b.attempted++
			b.checkCall(cl, []string{"/v1/netcheck", "/v1/chipcheck", "/v1/lifetime"}[k], func([]byte) error { return rr[i].errs[k] })
		}
	}

	// Bulk jobs: each completed job's result against the chipcheck
	// pipeline on the same params. A job still running when the rules
	// phase ended was cancelled by the generator and is not counted.
	var done []int
	for i, j := range u.bulk {
		if j.Cancelled {
			continue
		}
		b.attempted++
		if j.Err != nil {
			b.fail("bulk job %d: %v", i, j.Err)
			continue
		}
		done = append(done, i)
	}
	jobErrs := make([]error, len(done))
	parallelDo(len(done), refWorkers(b.nproc), func(i int) {
		res, _, _, err := chipEngine(ctx, bulkJob(b.o.seed, done[i]), nil, -1, done[i])
		jobErrs[i] = compareChip(u.bulk[done[i]].Result, res, err)
	})
	for i, err := range jobErrs {
		if err != nil {
			b.fail("bulk job %d result: %v", done[i], err)
		}
	}
	return nil
}

func compareChip(body []byte, want any, err error) error {
	if err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	got, err := decodeChip(body)
	if err != nil {
		return err
	}
	return sameJSON(got, want)
}

// checkCall counts a failed call (transport error, non-200 — refusals
// and timeouts included — or an oracle mismatch).
func (b *bench) checkCall(c *call, path string, check func(body []byte) error) {
	switch {
	case c.Err != nil:
		b.fail("%s: %v", path, c.Err)
	case c.Status != http.StatusOK:
		b.fail("%s: status %d: %s", path, c.Status, clip(c.Body, 0, 200))
	default:
		if err := check(c.Body); err != nil {
			b.fail("%s: %v", path, err)
		}
	}
}

// ratio is num/den, or 0 when the denominator is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
