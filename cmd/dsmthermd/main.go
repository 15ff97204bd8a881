// Command dsmthermd is the long-running signoff service over the
// dsmtherm library: an HTTP/JSON daemon serving self-consistent design
// rules (Eq. 13), duty-cycle sweeps, batch netlist signoff, full-chip
// checks, lifetime studies and technology inspection, with a solve
// cache, a bounded worker pool, admission control, and a /metrics
// endpoint.
//
//	dsmthermd -addr :8080 -workers 8 -cache 4096 -timeout 30s \
//	          -route-timeout /v1/netcheck=2m -route-timeout /v1/rules=5s \
//	          -snapshot-path /var/lib/dsmthermd/cache.snap \
//	          -pprof localhost:6060 \
//	          -jobs -jobs-dir /var/lib/dsmthermd/jobs -jobs-deadline 15m \
//	          -chunk-retries 3 -chunk-deadline 2m -jobs-degraded-ok
//
// The flags are deployment settings only. Request limits, admission,
// quarantine, breaker, snapshot cadence and job-lane sizing are one
// fixed policy, listed in DESIGN.md ("Fixed serving policy").
//
// With -jobs, chip-scale work (large Monte Carlo runs, sweep grids,
// FDM coupling maps, full-chip chipchecks, lifetime studies) is
// accepted asynchronously on /v1/jobs and runs on a dedicated
// low-priority worker lane; with -jobs-dir set, progress is
// checkpointed so a crashed or restarted daemon resumes jobs exactly
// where they stopped, bit-identical to an uninterrupted run. Job chunks
// run under a supervisor: -chunk-retries bounds per-chunk retries of
// transient failures (backed off exponentially), -chunk-deadline is the
// stuck-chunk watchdog (at most -jobs-deadline), and chunks that fail
// past their retries — or fail with a poison/numeric error — are
// quarantined into a per-chunk failure manifest (job status
// "completed_partial") instead of failing the whole job.
// -jobs-degraded-ok keeps accepting jobs when the journal disk fails;
// checkpointing degrades to in-memory and re-probes the disk
// periodically.
//
// The daemon drains in-flight requests on SIGINT/SIGTERM before exiting;
// requests arriving during the drain get a structured 503 and /readyz
// reports 503 "draining" so load balancers shift traffic first. With
// -snapshot-path set, the solve cache's working set is persisted
// (atomically, checksummed) across restarts.
//
// With -pprof set, net/http/pprof is served on a separate ops listener
// (bind it to localhost); the service address never exposes profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dsmtherm/internal/jobs"
	"dsmtherm/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "solver worker pool size (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 4096, "solve/deck cache capacity, entries (negative disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")
	snapshotPath := flag.String("snapshot-path", "", "cache snapshot file for warm restarts (empty disables)")
	jobsOn := flag.Bool("jobs", false, "enable the durable async job subsystem on /v1/jobs")
	jobsDir := flag.String("jobs-dir", "", "job journal directory for crash-safe resume (empty = in-memory jobs only)")
	jobsDeadline := flag.Duration("jobs-deadline", 0, "default per-job compute budget (0 = 15m)")
	chunkRetries := flag.Int("chunk-retries", 0, "retries per transiently failing job chunk before quarantine (0 = 3, negative disables retries)")
	chunkDeadline := flag.Duration("chunk-deadline", 0, "stuck-chunk watchdog: max duration of one chunk attempt (0 disables; at most -jobs-deadline)")
	jobsDegradedOK := flag.Bool("jobs-degraded-ok", false, "accept job submits even when the journal write fails (ENOSPC); such jobs run in-memory until the disk recovers")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate ops address (e.g. localhost:6060; empty disables)")
	routeTimeouts := make(map[string]time.Duration)
	flag.Func("route-timeout", "per-route timeout override as route=duration, e.g. /v1/netcheck=2m (repeatable)", func(v string) error {
		route, durStr, ok := strings.Cut(v, "=")
		if !ok || route == "" {
			return fmt.Errorf("want route=duration, got %q", v)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return fmt.Errorf("bad duration in %q: %v", v, err)
		}
		if d <= 0 {
			return fmt.Errorf("non-positive timeout in %q", v)
		}
		routeTimeouts[route] = d
		return nil
	})
	flag.Parse()

	cfg := server.Config{
		Workers:          *workers,
		CacheEntries:     *cache,
		RequestTimeout:   *timeout,
		EndpointTimeouts: routeTimeouts,
		DrainTimeout:     *drain,
		SnapshotPath:     *snapshotPath,
	}
	var jcfg *jobs.Config
	if *jobsOn || *jobsDir != "" {
		jcfg = &jobs.Config{
			Dir:             *jobsDir,
			DefaultDeadline: *jobsDeadline,
			ChunkRetries:    *chunkRetries,
			ChunkDeadline:   *chunkDeadline,
			DegradedOK:      *jobsDegradedOK,
		}
	} else if *chunkRetries != 0 || *chunkDeadline != 0 || *jobsDegradedOK {
		fmt.Fprintln(os.Stderr, "dsmthermd: -chunk-retries/-chunk-deadline/-jobs-degraded-ok require -jobs")
		os.Exit(2)
	}
	if err := run(*addr, *pprofAddr, cfg, jcfg); err != nil {
		fmt.Fprintln(os.Stderr, "dsmthermd:", err)
		os.Exit(1)
	}
}

func run(addr, pprofAddr string, cfg server.Config, jcfg *jobs.Config) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The profiling endpoints live on their own ops listener, never on
	// the service address: -pprof is opt-in, typically bound to
	// localhost, so heap/CPU profiles are reachable by operators without
	// exposing them to API clients. A manual mux keeps the handlers off
	// http.DefaultServeMux.
	if pprofAddr != "" {
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: mux}
		defer psrv.Close()
		go func() {
			if err := psrv.Serve(pln); err != nil && err != http.ErrServerClosed {
				log.Printf("dsmthermd: pprof listener: %v", err)
			}
		}()
		log.Printf("dsmthermd: pprof on http://%s/debug/pprof/", pln.Addr())
	}

	// The daemon owns the job manager's lifecycle: created before the
	// server (restoring any journaled jobs from a previous process), and
	// stopped after the HTTP drain so in-flight jobs suspend behind one
	// final checkpoint rather than being abandoned mid-chunk.
	if jcfg != nil {
		jm, err := jobs.New(*jcfg)
		if err != nil {
			return fmt.Errorf("job subsystem: %w", err)
		}
		defer jm.Stop()
		cfg.Jobs = jm
	}

	srv := server.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	adm := srv.Admission()
	log.Printf("dsmthermd: serving on %s (workers=%d cache=%d entries, timeout=%s, admit=%d queue=%d/%s)",
		ln.Addr(), srv.Pool().Size(), srv.Cache().Capacity(), cfg.RequestTimeout,
		adm.Slots(), adm.QueueDepth(), adm.MaxWait())
	if jm := srv.Jobs(); jm != nil {
		st := jm.Stats()
		log.Printf("dsmthermd: job subsystem on /v1/jobs (journal dir %q, resumed=%d corrupt=%d)",
			jcfg.Dir, st.ResumedBoot, st.CorruptBoot)
	}
	err = srv.Run(ctx, ln)
	if err == nil {
		log.Printf("dsmthermd: drained, bye")
	}
	return err
}
