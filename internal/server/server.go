// Package server is the long-running serving layer over the dsmtherm
// library: an HTTP/JSON daemon exposing self-consistent design rules
// (Eq. 13), duty-cycle sweeps, and batch netlist signoff as a service.
//
// The one-shot CLIs rebuild the rules deck and re-solve the nonlinear
// self-consistent equation from scratch on every invocation; the server
// amortizes that work across requests with a sharded LRU keyed on
// canonicalized solve inputs (deck generation and core.Solve are
// deterministic, so a hit skips the solve entirely), bounds solver
// concurrency with a shared worker pool, and exports request, cache and
// solver counters on /metrics.
//
// Routes:
//
//	POST   /v1/rules            — self-consistent limits for one node/level/duty cycle
//	POST   /v1/sweep            — duty-cycle sweep fanned across the worker pool
//	POST   /v1/batch            — many rules queries in one round trip, deduplicated
//	POST   /v1/netcheck         — batch signoff of a netcheck design JSON
//	POST   /v1/chipcheck        — full-chip coupled EM + IR-drop + thermal signoff
//	POST   /v1/lifetime         — Monte Carlo EM lifetime study
//	GET    /v1/tech             — technology inspection
//	POST   /v1/jobs             — submit an async job (with Config.Jobs)
//	GET    /v1/jobs/{id}        — job status and progress
//	GET    /v1/jobs/{id}/result — a finished job's result
//	DELETE /v1/jobs/{id}        — cancel a job
//	GET    /metrics             — counters (JSON)
//	GET    /healthz             — liveness (pure: 200 while the process serves)
//	GET    /readyz              — readiness (503 while draining or while the
//	                              boot snapshot is still loading)
//
// Concurrent cache misses on the same canonical key are coalesced
// (singleflight): one request leads the solve, the rest wait for its
// result, so a thundering herd of identical cold queries performs one
// solve, not N.
//
// The serving path is wrapped in a resilience layer (see recover.go,
// quarantine.go, breaker.go, snapshot.go): panics anywhere in request
// handling become structured 500s, keys that fail deterministically are
// quarantined with fast 422s, repeated failures trip a per-class
// circuit breaker that serves stale cache hits while the solver path is
// degraded, and the cache's working set survives restarts via atomic
// snapshots.
package server

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsmtherm/internal/core"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/rules"
)

// Fixed serving policy. These are not settings: every deployment runs
// with them, and DESIGN.md ("Fixed serving policy") lists them in one
// table.
const (
	// Request limits. Bigger chip grids and lifetime studies belong on
	// the bulk job lane, where the work holds neither an HTTP connection
	// nor a pool slot for seconds.
	maxBodyBytes       = 8 << 20 // request body bytes
	maxSweepPoints     = 4096    // fan-out of one /v1/sweep
	maxBatch           = 256     // entries in one /v1/batch
	maxSegments        = 10000   // segments in one /v1/netcheck design
	maxChipNodes       = 4096    // grid nodes in one /v1/chipcheck
	maxLifetimeSamples = 200000  // Monte Carlo samples in one /v1/lifetime

	// Admission in front of the solver-bearing routes: slots per pool
	// worker, waiting requests per slot before 429, and the longest
	// admission wait before 503 (clamped to RequestTimeout, and per
	// request to the route's remaining deadline in Admission.Acquire).
	admitPerWorker = 2
	queuePerSlot   = 4
	queueWait      = 2 * time.Second

	// Quarantine: a key failing quarantineThreshold times within
	// quarantineWindow answers 422 for quarantineTTL; at most
	// quarantineEntries failure records are kept, independent of the
	// result cache so poison keys never evict healthy results.
	quarantineThreshold = 3
	quarantineWindow    = time.Minute
	quarantineTTL       = 30 * time.Second
	quarantineEntries   = 1024

	// Breaker: breakerThreshold failures of one class within
	// breakerWindow open its circuit for breakerCooldown; while open,
	// cache hits older than breakerStaleAfter are marked stale.
	breakerThreshold  = 5
	breakerWindow     = 10 * time.Second
	breakerCooldown   = 5 * time.Second
	breakerStaleAfter = time.Minute

	// snapshotInterval is the periodic cache-snapshot cadence when
	// SnapshotPath is set; a final snapshot is written on shutdown.
	snapshotInterval = 5 * time.Minute
)

// Config holds the daemon's deployment settings.
type Config struct {
	// Workers bounds concurrent solver tasks across all requests
	// (default GOMAXPROCS). Admission allows admitPerWorker×Workers
	// solver-bearing requests in flight.
	Workers int
	// CacheEntries bounds the solve/deck cache (default 4096; negative
	// disables caching).
	CacheEntries int
	// RequestTimeout caps one request's work (default 30s).
	RequestTimeout time.Duration
	// EndpointTimeouts overrides RequestTimeout per route (key is the
	// route path, e.g. "/v1/sweep"). Routes not listed use
	// RequestTimeout.
	EndpointTimeouts map[string]time.Duration
	// DrainTimeout caps graceful-shutdown draining (default 15s).
	DrainTimeout time.Duration

	// Jobs, when non-nil, enables the durable async job subsystem on
	// POST/GET/DELETE /v1/jobs. The server adapts it to HTTP; the
	// manager's lifecycle (Stop after drain, or Kill in crash tests)
	// stays with whoever constructed it.
	Jobs *jobs.Manager

	// SnapshotPath, when set, enables crash-safe warm restarts: the
	// solve cache's working set is written there (atomic temp+rename,
	// versioned header, checksum) every snapshotInterval and on
	// shutdown, and loaded on boot — a corrupt or truncated file starts
	// the daemon cold, never kills it.
	SnapshotPath string
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
}

// timeoutFor returns the deadline budget for one route.
func (c *Config) timeoutFor(route string) time.Duration {
	if d, ok := c.EndpointTimeouts[route]; ok && d > 0 {
		return d
	}
	return c.RequestTimeout
}

// Server holds the shared state behind the handlers.
type Server struct {
	cfg        Config
	pool       *Pool
	cache      *Cache
	metrics    *Metrics
	admission  *Admission
	quarantine *Quarantine
	breaker    *Breaker
	jobs       *jobs.Manager
	flights    flightGroup
	mux        *http.ServeMux

	// draining is raised before the HTTP listener starts closing so new
	// work is rejected with a structured 503 instead of racing the
	// listener teardown. In-flight requests (already past the check)
	// drain normally.
	draining atomic.Bool

	// loading is raised while the boot-time snapshot restore is still
	// running; /readyz reports 503 until it clears. Serving does not
	// block on it — early requests just miss the cache.
	loading atomic.Bool

	// snapMu serializes snapshot writers (the periodic saver vs the
	// final shutdown save) so two saves never interleave on the temp
	// file.
	snapMu sync.Mutex

	// testHookStarted, when set (tests only), is called once a request
	// is past metrics accounting — it lets shutdown tests hold a request
	// in flight deterministically.
	testHookStarted func(route string)
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:        cfg,
		pool:       NewPool(cfg.Workers),
		cache:      NewCache(cfg.CacheEntries),
		metrics:    NewMetrics(),
		admission:  NewAdmission(admitPerWorker*cfg.Workers, queuePerSlot*admitPerWorker*cfg.Workers, min(queueWait, cfg.RequestTimeout)),
		quarantine: NewQuarantine(quarantineThreshold, quarantineWindow, quarantineTTL, quarantineEntries),
		breaker:    NewBreaker(breakerThreshold, breakerWindow, breakerCooldown, breakerStaleAfter),
		jobs:       cfg.Jobs,
	}
	// The pool task and flight leader recovery boundaries share one
	// panic counter with the route backstop; recoverTo counts at the
	// innermost boundary that converts, so a single panic is never
	// double-counted.
	s.pool.panics = &s.metrics.Panics
	s.flights.panics = &s.metrics.Panics
	s.mux = http.NewServeMux()
	s.route("POST /v1/rules", s.handleRules, gated)
	s.route("POST /v1/sweep", s.handleSweep, gated)
	s.route("POST /v1/batch", s.handleBatch, gated)
	s.route("POST /v1/netcheck", s.handleNetcheck, gated)
	s.route("POST /v1/chipcheck", s.handleChipcheck, gated)
	s.route("POST /v1/lifetime", s.handleLifetime, gated)
	s.route("GET /v1/tech", s.handleTech, ungated)
	// Job routes stay off the admission gate: submission is cheap
	// validate-and-journal with its own lane-depth backpressure, and the
	// compute runs on the manager's dedicated workers, not the pool.
	s.route("POST /v1/jobs", s.handleJobSubmit, ungated)
	s.route("GET /v1/jobs/{id}", s.handleJobGet, ungated)
	s.route("GET /v1/jobs/{id}/result", s.handleJobResult, ungated)
	s.route("DELETE /v1/jobs/{id}", s.handleJobCancel, ungated)
	s.route("GET /metrics", s.handleMetrics, ungated)
	s.route("GET /healthz", s.handleHealthz, ungated)
	s.route("GET /readyz", s.handleReadyz, ungated)
	if cfg.SnapshotPath != "" {
		// Restore off the serving path: the listener can accept while
		// the snapshot streams in; /readyz holds back the load balancer
		// until the working set is warm.
		s.loading.Store(true)
		go s.loadSnapshot()
	}
	return s
}

// Route admission classes: solver-bearing routes go through the
// admission queue; cheap routes (and /metrics, which must stay readable
// during overload) bypass it.
const (
	ungated = false
	gated   = true
)

func (s *Server) route(pattern string, h http.HandlerFunc, admit bool) {
	routeName := pattern[strings.IndexByte(pattern, ' ')+1:]
	timeout := s.cfg.timeoutFor(routeName)
	// Observability routes stay reachable during drain: /metrics so
	// operators can watch the drain itself, /healthz because liveness
	// must not flap during a graceful restart, /readyz because its whole
	// job is to report "draining" to the load balancer.
	bypassDrain := routeName == "/metrics" || routeName == "/healthz" || routeName == "/readyz"
	s.mux.HandleFunc(pattern, s.metrics.instrument(routeName, func(w http.ResponseWriter, r *http.Request) {
		// Backstop recovery boundary: anything that panics outside the
		// pool-task and flight-leader boundaries (decode helpers,
		// response marshaling, the handlers themselves) becomes a
		// structured 500 on this connection instead of killing the
		// process. The deferred admission release and ctx cancel below
		// run during the same unwind, so a panic can never leak an
		// admission token; instrument's own defer keeps the in-flight
		// gauge and latency accounting exact.
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			s.metrics.Panics.Add(1)
			pe := &panicError{site: "handler:" + routeName, value: rec}
			log.Printf("server: recovered panic at %s: %v\n%s", pe.site, rec, debug.Stack())
			writeError(w, pe)
		}()
		// Drain-exempt routes aside, everything else bounces with a
		// structured 503 so load balancers stop routing here. Requests
		// past this gate are "in flight" and drain normally.
		if s.draining.Load() && !bypassDrain {
			s.metrics.RejectedDraining.Add(1)
			writeError(w, ErrDraining)
			return
		}
		if s.testHookStarted != nil {
			s.testHookStarted(routeName)
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		if admit {
			release, err := s.admission.Acquire(ctx)
			if err != nil {
				switch {
				case errors.Is(err, ErrQueueFull):
					s.metrics.RejectedQueueFull.Add(1)
				case errors.Is(err, ErrQueueWait):
					s.metrics.RejectedQueueWait.Add(1)
				}
				writeError(w, err)
				return
			}
			defer release()
		}
		h(w, r)
	}))
}

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counter registry (tests and the daemon banner).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the solve cache (tests).
func (s *Server) Cache() *Cache { return s.cache }

// Pool exposes the worker pool (the daemon banner).
func (s *Server) Pool() *Pool { return s.pool }

// Admission exposes the admission gate (tests and the daemon banner).
func (s *Server) Admission() *Admission { return s.admission }

// Flights exposes the request coalescer (tests).
func (s *Server) Flights() *flightGroup { return &s.flights }

// Quarantine exposes the poison-key quarantine (tests and /metrics).
func (s *Server) Quarantine() *Quarantine { return s.quarantine }

// Breaker exposes the circuit breaker (tests and /metrics).
func (s *Server) Breaker() *Breaker { return s.breaker }

// Loading reports whether the boot-time snapshot restore is still
// running.
func (s *Server) Loading() bool { return s.loading.Load() }

// Run serves on ln until ctx is cancelled, then shuts down gracefully,
// draining in-flight requests for up to Config.DrainTimeout. It returns
// nil after a clean drain.
//
// Shutdown ordering: the drain flag is raised BEFORE http.Server.Shutdown
// starts closing the listener, so any request that still reaches a
// handler during teardown gets a structured 503 ("draining") instead of
// racing the listener close; requests already in flight when the flag
// rises complete normally.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if s.cfg.SnapshotPath != "" {
		go s.snapshotLoop(ctx)
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	<-errc // http.ErrServerClosed
	if s.cfg.SnapshotPath != "" {
		// Final save after the drain, so the snapshot captures the full
		// working set including results from the last in-flight wave. A
		// save failure is logged and counted, never fatal to shutdown.
		if err := s.SaveSnapshot(); err != nil {
			log.Printf("server: shutdown snapshot: %v", err)
		}
	}
	return nil
}

// snapshotLoop writes periodic snapshots until ctx ends.
func (s *Server) snapshotLoop(ctx context.Context) {
	t := time.NewTicker(snapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.SaveSnapshot(); err != nil {
				log.Printf("server: periodic snapshot: %v", err)
			}
		}
	}
}

// Draining reports whether the server has entered its shutdown drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// Canonical cache keys. Floats are rendered with strconv 'x' (hex, exact
// round-trip), so two requests hit the same entry iff their solve inputs
// are bit-identical — no tolerance guessing, no false sharing. String
// fields are length-prefixed rather than '|'-joined: client-supplied
// selectors may themselves contain the separator, and plain joining
// would let ("a", "b|c") and ("a|b", "c") collide on one cache entry
// (the key-encoder fuzz target locks this property).
func keyFloat(b *strings.Builder, x float64) {
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(x, 'x', -1, 64))
}

func keyStr(b *strings.Builder, s string) {
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// solveKey canonicalizes one self-consistent solve on a technology level.
func solveKey(node, gap, metal string, level int, lengthM, r, j0, tref float64) string {
	var b strings.Builder
	b.WriteString("solve")
	keyStr(&b, node)
	keyStr(&b, gap)
	keyStr(&b, metal)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(level))
	keyFloat(&b, lengthM)
	keyFloat(&b, r)
	keyFloat(&b, j0)
	keyFloat(&b, tref)
	return b.String()
}

// levelRuleKey canonicalizes one deck-level rule generation. Every Spec
// field the generated rule depends on (J0 and Tref — signal/power
// limits, Tm, Blech length and ESD widths all shift with Tref) must be
// part of the key, or requests differing only in that field would
// silently share a row.
func levelRuleKey(node, gap, metal string, level int, j0, tref float64) string {
	var b strings.Builder
	b.WriteString("rule")
	keyStr(&b, node)
	keyStr(&b, gap)
	keyStr(&b, metal)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(level))
	keyFloat(&b, j0)
	keyFloat(&b, tref)
	return b.String()
}

// deckKey canonicalizes a whole-deck generation (netcheck path).
func deckKey(node, gap, metal string, j0MA float64) string {
	var b strings.Builder
	b.WriteString("deck")
	keyStr(&b, node)
	keyStr(&b, gap)
	keyStr(&b, metal)
	keyFloat(&b, j0MA)
	return b.String()
}

// result is what the cache stores for a key: the outcome, success or
// not. Solves and rule generation are deterministic, so remembering
// failures (ErrNoSolution, validation errors) is as sound as
// remembering values and shields the solver from repeated doomed
// requests.
type result[T any] struct {
	v   T
	err error
}

// cacheableOutcome reports whether a compute outcome may be remembered
// in the result cache. Successes and deterministic failures of the
// problem itself (ErrNoSolution, the validation families) are;
// everything else — panics, injected faults, unclassified internal
// errors — is not provably a property of the inputs, so remembering it
// would poison the key forever. The quarantine is the right memory for
// those: bounded, windowed, and TTL-released.
func cacheableOutcome(err error) bool {
	return err == nil ||
		errors.Is(err, core.ErrNoSolution) ||
		errors.Is(err, core.ErrInvalid) ||
		errors.Is(err, rules.ErrInvalid)
}

// gateMiss applies the resilience gates to one cache miss, in order:
// the quarantine first (per-key memory of recent failures), then the
// circuit breaker (global degradation). The returned probe flag must be
// passed back into recordMiss so a half-open probe's outcome reaches
// the breaker even when the probe rides a coalesced flight.
func (s *Server) gateMiss(key string) (probe bool, err error) {
	if retry, quarantined := s.quarantine.Check(key); quarantined {
		return false, withRetryHint(ErrQuarantined, retry)
	}
	probe, retry, ok := s.breaker.Allow()
	if !ok {
		return false, withRetryHint(ErrBreakerOpen, retry)
	}
	return probe, nil
}

// recordMiss reports one miss outcome to the quarantine and breaker.
// Coalesced waiters share their leader's single outcome, so only the
// leader records — except that a waiter holding the breaker's probe
// token must still report, or the half-open state would deadlock on a
// token that nobody returns. Lifecycle errors (the request died, not
// the computation) are neutral: they release the probe without counting
// for or against anything.
func (s *Server) recordMiss(key string, err error, coalesced, probe bool) {
	class := failureClass(err)
	if !coalesced {
		switch {
		case class != "":
			s.quarantine.RecordFailure(key)
		case isLifecycleErr(err):
		default:
			s.quarantine.RecordSuccess(key)
		}
	}
	if !coalesced || probe {
		switch {
		case class != "":
			s.breaker.RecordFailure(class, probe)
		case isLifecycleErr(err):
			s.breaker.ProbeDone(probe)
		default:
			s.breaker.RecordSuccess(probe)
		}
	}
}

// markStale reports whether a cache hit stored at `at` should carry
// "stale":true (Breaker.Stale), counting the ones that do.
func (s *Server) markStale(at time.Time) bool {
	if !s.breaker.Stale(at) {
		return false
	}
	s.metrics.StaleServed.Add(1)
	return true
}

// cached runs compute through the cache and, on a miss, through the
// resilience gates and the flight group: concurrent misses on the same
// key block on one in-flight computation instead of each recomputing.
// hits counts the answers served from the cache. Cancellation outcomes
// are never cached (they describe the request's lifecycle, not the
// problem), and neither are unclassified internal failures
// (cacheableOutcome); those feed the quarantine and breaker instead.
func cached[T any](ctx context.Context, s *Server, key string, hits *atomic.Uint64, compute func(context.Context) (T, error)) (v T, hit, coalesced, stale bool, err error) {
	if c, at, ok := s.cache.GetAt(key); ok {
		res := c.(result[T])
		hits.Add(1)
		return res.v, true, false, s.markStale(at), res.err
	}
	probe, err := s.gateMiss(key)
	if err != nil {
		return v, false, false, false, err
	}
	var out any
	out, coalesced, err = s.flights.Do(ctx, key, func() (any, error) {
		v, err := compute(ctx)
		if ctx.Err() == nil && cacheableOutcome(err) {
			s.cache.Add(key, result[T]{v: v, err: err})
		}
		return v, err
	})
	s.recordMiss(key, err, coalesced, probe)
	v, _ = out.(T)
	return v, false, coalesced, false, err
}

// solveCached runs core.SolveCtx through cached.
func (s *Server) solveCached(ctx context.Context, key string, p core.Problem) (core.Solution, bool, bool, bool, error) {
	return cached(ctx, s, key, &s.metrics.SolveCached, func(ctx context.Context) (core.Solution, error) {
		start := time.Now()
		sol, err := core.SolveCtx(ctx, p)
		s.metrics.ObserveSolve(time.Since(start), err)
		return sol, err
	})
}

// levelRuleCached runs rules.GenerateLevelCtx through cached.
func (s *Server) levelRuleCached(ctx context.Context, key string, tech *ntrs.Technology, level int, spec rules.Spec) (rules.LevelRule, bool, bool, bool, error) {
	return cached(ctx, s, key, &s.metrics.DeckCacheHit, func(ctx context.Context) (rules.LevelRule, error) {
		rule, err := rules.GenerateLevelCtx(ctx, tech, level, spec)
		s.metrics.DecksBuilt.Add(1)
		return rule, err
	})
}

// deckCached runs rules.GenerateCtx through cached. Deck values hold a
// *ntrs.Technology and are excluded from snapshots; they rebuild on
// first use after a restart.
func (s *Server) deckCached(ctx context.Context, key string, tech *ntrs.Technology, spec rules.Spec) (*rules.Deck, bool, bool, bool, error) {
	return cached(ctx, s, key, &s.metrics.DeckCacheHit, func(ctx context.Context) (*rules.Deck, error) {
		deck, err := rules.GenerateCtx(ctx, tech, spec)
		s.metrics.DecksBuilt.Add(1)
		return deck, err
	})
}
