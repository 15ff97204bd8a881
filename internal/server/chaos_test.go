package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmtherm/internal/faultinject"
)

// The chaos suite drives the daemon with concurrent batches while fault
// hooks inject solver slowdowns, transient solver errors and cache-shard
// contention, and a slice of clients gives up early. It asserts the
// invariants the hardening work is about:
//
//   - every response the server writes is structured JSON with a known
//     status (no empty bodies, no plain-text errors);
//   - identical completed (200) requests return identical results no
//     matter what faults or cancellations happened around them;
//   - when the storm passes, nothing leaks: the in-flight gauge, pool
//     occupancy, admission occupancy and wait-queue all read zero, and
//     the goroutine count returns to its pre-load baseline.

// chaosAllowedStatus is the closed set of statuses load may produce.
// 200 success, 422 quarantined key, 429 queue full, 503 queue wait /
// breaker open / client-cancel surfaced, 504 deadline, 500 the injected
// transient solver error or a recovered panic.
var chaosAllowedStatus = map[int]bool{
	http.StatusOK:                  true,
	http.StatusUnprocessableEntity: true,
	http.StatusTooManyRequests:     true,
	http.StatusServiceUnavailable:  true,
	http.StatusGatewayTimeout:      true,
	http.StatusInternalServerError: true,
}

// normalizeBody strips the cache-, coalescing- and staleness-provenance
// flags ("cached", "deckCached", "coalesced", "deckCoalesced", "stale",
// "deckStale") so bodies from cold hits, warm hits, coalesced waiters
// and degraded-mode serving compare equal; the physics payload must be
// bit-identical.
func normalizeBody(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	delete(m, "cached")
	delete(m, "deckCached")
	delete(m, "coalesced")
	delete(m, "deckCoalesced")
	delete(m, "stale")
	delete(m, "deckStale")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestChaosLoadWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	s := New(Config{
		Workers:         4,
		CacheEntries:    512,
		AdmitConcurrent: 4,
		QueueDepth:      8,
		QueueWait:       200 * time.Millisecond,
		RequestTimeout:  10 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Faults: every solve entry has a 1-in-9 transient failure, every
	// solver iteration is slowed, and every cache access contends.
	errInjected := errors.New("injected transient solver fault")
	t.Cleanup(faultinject.Set(faultinject.SiteCoreSolve, faultinject.ErrEvery(9, errInjected)))
	t.Cleanup(faultinject.Set(faultinject.SiteCoreSolveIter, faultinject.Sleep(200*time.Microsecond)))
	t.Cleanup(faultinject.Set(faultinject.SiteCacheShard, faultinject.Sleep(20*time.Microsecond)))

	type shot struct {
		url      string
		payload  string
		status   int
		body     []byte
		timedOut bool // client gave up; no response to validate
	}
	payloads := []struct {
		path string
		body string
	}{
		{"/v1/rules", `{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`},
		{"/v1/rules", `{"node":"0.25","level":3,"dutyCycle":0.33,"j0MA":1.8}`},
		{"/v1/rules", `{"node":"0.10","level":2,"dutyCycle":0.01,"j0MA":1.2,"gap":"HSQ"}`},
		{"/v1/sweep", `{"level":5,"dutyCycles":[0.05,0.1,0.5,1]}`},
		{"/v1/sweep", `{"node":"0.10","level":4,"dutyCycles":[0.2,0.4]}`},
		{"/v1/netcheck", `{"node":"0.25","segments":[
			{"net":"clk","name":"s1","level":5,"widthMultiple":1,"lengthUm":3000,
			 "waveform":{"kind":"bipolar","peakMA":1.0,"dutyCycle":0.12}},
			{"net":"abuse","name":"hot","level":5,"widthMultiple":1,"lengthUm":3000,
			 "waveform":{"kind":"bipolar","peakMA":60,"dutyCycle":0.12}}]}`},
	}

	const clients = 12
	const perClient = 6
	results := make(chan shot, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				p := payloads[(c+i)%len(payloads)]
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				// Every sixth request is an impatient client that
				// abandons the request mid-solve.
				impatient := (c+i)%6 == 5
				if impatient {
					ctx, cancel = context.WithTimeout(ctx, 3*time.Millisecond)
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost,
					ts.URL+p.path, strings.NewReader(p.body))
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				cancel()
				if err != nil {
					if !impatient {
						t.Errorf("request failed without client timeout: %v", err)
					}
					results <- shot{timedOut: true}
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				results <- shot{url: p.path, payload: p.body, status: resp.StatusCode, body: body}
			}
		}(c)
	}
	wg.Wait()
	close(results)

	// Every served response is structured JSON from the allowed set, and
	// 200 bodies for one payload are identical across the whole run.
	okBodies := make(map[string]string) // payload -> normalized 200 body
	served, abandoned := 0, 0
	for sh := range results {
		if sh.timedOut {
			abandoned++
			continue
		}
		served++
		if !chaosAllowedStatus[sh.status] {
			t.Errorf("%s: unexpected status %d: %s", sh.url, sh.status, sh.body)
			continue
		}
		if sh.status == http.StatusOK {
			norm := normalizeBody(t, sh.body)
			key := sh.url + "\x00" + sh.payload
			if prev, ok := okBodies[key]; ok && prev != norm {
				t.Errorf("%s: two 200 responses for identical payload differ:\n%s\n%s", sh.url, prev, norm)
			}
			okBodies[key] = norm
			continue
		}
		var apiErr apiError
		if err := json.Unmarshal(sh.body, &apiErr); err != nil {
			t.Errorf("%s: %d response is not structured JSON: %v\n%s", sh.url, sh.status, err, sh.body)
		} else if apiErr.Error.Code == "" {
			t.Errorf("%s: %d response has empty error code: %s", sh.url, sh.status, sh.body)
		}
	}
	t.Logf("chaos load: %d served, %d abandoned by impatient clients", served, abandoned)

	// The injection sites actually fired (the storm was real).
	if faultinject.Count(faultinject.SiteCoreSolveIter) == 0 {
		t.Error("solver-iteration fault site never fired")
	}
	if faultinject.Count(faultinject.SiteCacheShard) == 0 {
		t.Error("cache-shard fault site never fired")
	}

	// Quiescence: all gauges drain to zero.
	waitQuiescent(t, s, 5*time.Second)

	// The /metrics document agrees.
	var snap Snapshot
	if status := getJSON(t, ts.URL+"/metrics", &snap); status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if snap.InFlight != 1 { // the /metrics request itself is in flight
		t.Errorf("inFlight gauge drifted: %d, want 1 (the scrape itself)", snap.InFlight)
	}
	if snap.Pool.InUse != 0 {
		t.Errorf("pool inUse drifted: %d, want 0", snap.Pool.InUse)
	}
	if snap.Admission.InUse != 0 || snap.Admission.Waiting != 0 {
		t.Errorf("admission gauges drifted: inUse=%d waiting=%d, want 0/0", snap.Admission.InUse, snap.Admission.Waiting)
	}

	// No goroutine leak once the HTTP client's idle connections close.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+10 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitQuiescent polls until every server gauge reads zero, including
// the coalescer's open-flight and waiter gauges.
func waitQuiescent(t *testing.T, s *Server, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if s.Pool().InUse() == 0 && s.Admission().InUse() == 0 && s.Admission().Waiting() == 0 &&
			s.Flights().Active() == 0 && s.Flights().Waiting() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not quiesce: pool=%d admission=%d waiting=%d flights=%d flightWaiters=%d",
				s.Pool().InUse(), s.Admission().InUse(), s.Admission().Waiting(),
				s.Flights().Active(), s.Flights().Waiting())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosCoalescerThunderingHerd is the acceptance check for the
// coalescer: N concurrent identical cold requests perform exactly one
// solve. A stall hook holds the leader's solve open until all the other
// requests have piled onto its flight, so the test is deterministic:
// every non-leader MUST be a waiter (the cache cannot answer anyone
// early).
func TestChaosCoalescerThunderingHerd(t *testing.T) {
	const herd = 8
	s := New(Config{
		Workers:         herd,
		CacheEntries:    512,
		AdmitConcurrent: 2 * herd,
		QueueDepth:      2 * herd,
		QueueWait:       5 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	var releaseOnce sync.Once
	unstall := func() { releaseOnce.Do(func() { close(release) }) }
	defer unstall()
	t.Cleanup(faultinject.Set(faultinject.SiteCoreSolve, faultinject.Stall(release)))

	const payload = `{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`
	type shot struct {
		status int
		body   []byte
	}
	results := make(chan shot, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/rules", "application/json", strings.NewReader(payload))
			if err != nil {
				t.Errorf("herd request failed: %v", err)
				results <- shot{}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- shot{status: resp.StatusCode, body: body}
		}()
	}

	// The leader is stalled inside its solve; everyone else must end up
	// blocked on its flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.Flights().Waiting() != herd-1 {
		if time.Now().After(deadline) {
			t.Fatalf("herd never converged on one flight: waiting=%d active=%d",
				s.Flights().Waiting(), s.Flights().Active())
		}
		time.Sleep(time.Millisecond)
	}
	unstall()
	wg.Wait()
	close(results)

	var bodies []string
	coalesced := 0
	for sh := range results {
		if sh.status != http.StatusOK {
			t.Fatalf("herd response: status %d: %s", sh.status, sh.body)
		}
		var rr RulesResponse
		if err := json.Unmarshal(sh.body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Coalesced {
			coalesced++
		}
		bodies = append(bodies, normalizeBody(t, sh.body))
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("herd bodies differ:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	// The 7 solve-flight waiters all report coalesced; the solve leader
	// may additionally coalesce on the rule flight, so >= not ==.
	if coalesced < herd-1 {
		t.Errorf("coalesced responses = %d, want >= %d", coalesced, herd-1)
	}

	// One solve, one deck row, for the whole herd.
	if got := s.Metrics().Solves.Load(); got != 1 {
		t.Errorf("herd of %d performed %d solves, want exactly 1", herd, got)
	}
	if got := s.Metrics().DecksBuilt.Load(); got != 1 {
		t.Errorf("herd of %d built %d deck rows, want exactly 1", herd, got)
	}

	// The /metrics cache section reports the coalescing.
	var snap Snapshot
	if status := getJSON(t, ts.URL+"/metrics", &snap); status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if snap.Cache.Coalesced < herd-1 {
		t.Errorf("metrics coalesced = %d, want >= %d", snap.Cache.Coalesced, herd-1)
	}
	if snap.Cache.Flights == 0 {
		t.Error("metrics flights counter never advanced")
	}

	waitQuiescent(t, s, 5*time.Second)
}

// TestChaosCoalescerLeaderCancelled drives the nastiest coalescer race:
// the flight's leader is cancelled mid-solve while live waiters are
// blocked on its flight. The leader's lifecycle error must NOT
// propagate to the waiters — the flight re-arms and a waiter promotes
// to leader under its own live context, so every surviving request
// still gets a 200.
func TestChaosCoalescerLeaderCancelled(t *testing.T) {
	s := New(Config{Workers: 4, CacheEntries: 512, AdmitConcurrent: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold only the FIRST flight open until its leader's context dies,
	// and fail it with that lifecycle error; later flights (the promoted
	// waiter's) run through untouched.
	var first atomic.Bool
	t.Cleanup(faultinject.Set(faultinject.SiteServerFlight, func(ctx context.Context) error {
		if first.CompareAndSwap(false, true) {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}))
	hookFired := faultinject.Count(faultinject.SiteServerFlight)

	const payload = `{"node":"0.10","level":6,"dutyCycle":0.25,"j0MA":1.5}`

	// Leader A, on a context the test controls.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctxA, http.MethodPost,
			ts.URL+"/v1/rules", strings.NewReader(payload))
		if err != nil {
			aDone <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = fmt.Errorf("leader finished with %d before its cancellation", resp.StatusCode)
		}
		aDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faultinject.Count(faultinject.SiteServerFlight) == hookFired {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the flight injection site")
		}
		time.Sleep(time.Millisecond)
	}

	// Waiters B and C pile onto A's stalled flight.
	type shot struct {
		status int
		body   []byte
	}
	waiters := make(chan shot, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/rules", "application/json", strings.NewReader(payload))
			if err != nil {
				t.Errorf("waiter request failed: %v", err)
				waiters <- shot{}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			waiters <- shot{status: resp.StatusCode, body: body}
		}()
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.Flights().Waiting() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never joined the leader's flight: waiting=%d", s.Flights().Waiting())
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the leader while both waiters are live.
	cancelA()
	if err := <-aDone; err == nil {
		t.Error("cancelled leader should have failed client-side")
	}
	wg.Wait()
	close(waiters)

	var bodies []string
	for sh := range waiters {
		if sh.status != http.StatusOK {
			t.Fatalf("surviving waiter got %d (leader's lifecycle error leaked?): %s", sh.status, sh.body)
		}
		bodies = append(bodies, normalizeBody(t, sh.body))
	}
	if len(bodies) == 2 && bodies[0] != bodies[1] {
		t.Errorf("surviving waiters disagree:\n%s\n%s", bodies[0], bodies[1])
	}

	// The dead leader never solved (its flight failed at the injection
	// site); promotion solved once — twice only if the second waiter's
	// retry raced past the promoted flight's settlement.
	if got := s.Metrics().Solves.Load(); got < 1 || got > 2 {
		t.Errorf("solves = %d, want 1 (or 2 on a re-lead race)", got)
	}
	if got := s.Flights().Led(); got < 2 {
		t.Errorf("Led() = %d, want >= 2 (dead leader + promoted waiter)", got)
	}
	waitQuiescent(t, s, 5*time.Second)
}

// TestCancelledRequestFreesPoolSlot pins the PR's latency bound at the
// server level: with a fault-injected stall slowing every solver
// iteration, a client that abandons its request must see the request's
// pool slot freed within roughly one iteration (here: one injected
// stall) — not after the full solve runs to completion.
func TestCancelledRequestFreesPoolSlot(t *testing.T) {
	const perIter = 50 * time.Millisecond
	const cancelAfter = 100 * time.Millisecond
	// Bound: the in-progress iteration may run to the end of its stall,
	// plus generous scheduling slack. A solver that ignores cancellation
	// blows far past this (a full Brent search is dozens of iterations).
	const bound = perIter + 250*time.Millisecond

	s := New(Config{Workers: 2, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Cleanup(faultinject.Set(faultinject.SiteCoreSolveIter, faultinject.Sleep(perIter)))

	// The clock starts before the timeout does, so time spent between
	// the two under CPU contention cannot make the client look early.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), cancelAfter)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/rules",
		strings.NewReader(`{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("request completed before the client timeout; raise perIter")
	}
	cancelled := time.Now()
	if d := cancelled.Sub(start); d < cancelAfter {
		t.Fatalf("client returned after %v, before its own %v timeout", d, cancelAfter)
	}

	// The slot must come free within ~one injected iteration of the
	// client walking away.
	for s.Pool().InUse() != 0 {
		if d := time.Since(cancelled); d > bound {
			t.Fatalf("pool slot still held %v after client cancel (bound %v, per-iteration stall %v)",
				d, bound, perIter)
		}
		time.Sleep(time.Millisecond)
	}
	if d := time.Since(cancelled); d > bound {
		t.Fatalf("pool slot freed after %v, want within %v", d, bound)
	}
	waitQuiescent(t, s, time.Second)
}

// TestChaosStalledSolveDoesNotBlockUngatedRoutes verifies /metrics and
// /healthz stay responsive while every admission slot is pinned by
// stalled solves — observability must survive overload.
func TestChaosStalledSolveDoesNotBlockUngatedRoutes(t *testing.T) {
	s := New(Config{
		Workers:         2,
		CacheEntries:    -1,
		AdmitConcurrent: 2,
		QueueDepth:      2,
		QueueWait:       5 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	var releaseOnce sync.Once
	unstall := func() { releaseOnce.Do(func() { close(release) }) }
	defer unstall()
	t.Cleanup(faultinject.Set(faultinject.SiteCoreSolve, faultinject.Stall(release)))

	// Pin both admission slots with stalled solves.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"node":"0.25","level":%d,"dutyCycle":0.1,"j0MA":1.8}`, 3+i)
			resp, err := http.Post(ts.URL+"/v1/rules", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Admission().InUse() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled requests never occupied admission: inUse=%d", s.Admission().InUse())
		}
		time.Sleep(time.Millisecond)
	}

	// Ungated routes answer promptly while the solver is wedged.
	client := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{"/metrics", "/healthz", "/v1/tech"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while wedged: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s while wedged: status %d: %s", path, resp.StatusCode, body)
		}
		if !bytes.HasPrefix(bytes.TrimSpace(body), []byte("{")) {
			t.Errorf("GET %s: body is not JSON: %s", path, body)
		}
	}

	// With both slots pinned, gated requests queue. The queue is two
	// deep: of three more requests, two queue and one bounces with 429.
	codes := make(chan int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/rules",
				strings.NewReader(`{"node":"0.25","level":5,"dutyCycle":0.2,"j0MA":1.8}`))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				codes <- 0 // client timeout while queued: fine
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	saw429 := false
	for i := 0; i < 3; i++ {
		if <-codes == http.StatusTooManyRequests {
			saw429 = true
		}
	}
	if !saw429 {
		t.Error("overflowing the wait-queue never produced a 429")
	}
	if got := s.Metrics().RejectedQueueFull.Load(); got == 0 {
		t.Error("RejectedQueueFull counter did not advance")
	}

	unstall()
	wg.Wait()
	waitQuiescent(t, s, 5*time.Second)
}

// TestChaosPoisonKeyQuarantine is the tentpole acceptance test: one
// canonical key panics on every solve while 32 concurrent clients hammer
// a mix of the poison key and healthy keys. The invariants:
//
//   - every response is structured JSON: the poison key yields 500
//     ("internal", with the panic site) until the quarantine threshold,
//     then fast 422 ("quarantined") with Retry-After;
//   - healthy keys keep serving 200 throughout — neither the panics nor
//     the embargo bleed onto other keys;
//   - the process survives (the panics are contained), all gauges drain
//     to zero, and no goroutines leak.
func TestChaosPoisonKeyQuarantine(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const quarantineAfter = 3
	s := New(Config{
		Workers:             4,
		CacheEntries:        512,
		AdmitConcurrent:     32,
		QueueDepth:          64,
		QueueWait:           5 * time.Second,
		QuarantineThreshold: quarantineAfter,
		QuarantineWindow:    time.Minute,
		QuarantineTTL:       time.Minute,
		// Keep the breaker out of this test's way: the poison key must be
		// contained by the per-key quarantine, not a global trip.
		BreakerThreshold: 1000,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The flight leader attaches the canonical cache key as injection
	// metadata; panic every solve of the 0.10-node key and nothing else.
	const poisonPrefix = "solve|4:0.10"
	t.Cleanup(faultinject.Set(faultinject.SiteServerFlight,
		faultinject.PanicOnMeta(func(meta string) bool {
			return strings.HasPrefix(meta, poisonPrefix)
		}, "poisoned solve")))

	const poisonBody = `{"node":"0.10","level":3,"dutyCycle":0.5,"j0MA":1.5}`
	healthyBody := func(i int) string {
		return fmt.Sprintf(`{"node":"0.25","level":%d,"dutyCycle":0.1,"j0MA":1.8}`, 1+i%5)
	}

	type shot struct {
		poison bool
		status int
		body   []byte
	}
	const clients = 32
	const perClient = 4
	results := make(chan shot, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				poison := (c+i)%2 == 0
				body := poisonBody
				if !poison {
					body = healthyBody(c + i)
				}
				resp, err := http.Post(ts.URL+"/v1/rules", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("request failed: %v", err)
					continue
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				results <- shot{poison: poison, status: resp.StatusCode, body: b}
			}
		}(c)
	}
	wg.Wait()
	close(results)

	poison500, poison422 := 0, 0
	for sh := range results {
		if !chaosAllowedStatus[sh.status] {
			t.Errorf("unexpected status %d: %s", sh.status, sh.body)
			continue
		}
		if !sh.poison {
			if sh.status != http.StatusOK {
				t.Errorf("healthy key degraded to %d: %s", sh.status, sh.body)
			}
			continue
		}
		var apiErr apiError
		switch sh.status {
		case http.StatusInternalServerError:
			poison500++
			if err := json.Unmarshal(sh.body, &apiErr); err != nil || apiErr.Error.Code != "internal" {
				t.Errorf("panic response not structured: %s", sh.body)
			}
		case http.StatusUnprocessableEntity:
			poison422++
			if err := json.Unmarshal(sh.body, &apiErr); err != nil || apiErr.Error.Code != "quarantined" {
				t.Errorf("quarantine response not structured: %s", sh.body)
			}
		default:
			t.Errorf("poison key returned %d, want 500 or 422: %s", sh.status, sh.body)
		}
	}
	if poison422 == 0 {
		t.Error("poison key was never quarantined")
	}
	t.Logf("poison key: %d structured 500s, then %d quarantined 422s", poison500, poison422)

	// Containment was tight: the key stopped reaching the solver within
	// the threshold, give or take gate/record races (a request that
	// passed the quarantine check before the embargo was recorded may
	// still lead one extra flight).
	panics := s.Metrics().Panics.Load()
	if panics < quarantineAfter {
		t.Errorf("panics = %d, want >= %d (the quarantine needs real failures to trip)", panics, quarantineAfter)
	}
	if panics > quarantineAfter+8 {
		t.Errorf("panics = %d: quarantine let far more than %d failures through", panics, quarantineAfter)
	}
	if got := s.Quarantine().Quarantined(); got != 1 {
		t.Errorf("Quarantined = %d, want exactly 1 (one poison key)", got)
	}
	if got := s.Quarantine().Hits(); got == 0 {
		t.Error("quarantine Hits never advanced")
	}

	// /metrics reports the containment.
	var snap Snapshot
	if status := getJSON(t, ts.URL+"/metrics", &snap); status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if snap.Resilience.Panics != panics {
		t.Errorf("metrics panics = %d, want %d", snap.Resilience.Panics, panics)
	}
	if snap.Resilience.Quarantine.Active != 1 {
		t.Errorf("metrics quarantine active = %d, want 1", snap.Resilience.Quarantine.Active)
	}

	// Quiescence and goroutine hygiene, same bar as the fault storm.
	waitQuiescent(t, s, 5*time.Second)
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+10 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosBreakerDegradedServing drives the breaker end to end over
// HTTP: a warm cache entry, then a failure storm trips the circuit;
// while open, the warm key keeps serving from cache (marked stale past
// the freshness horizon), cold keys get fast 503 "breaker_open" with
// Retry-After, and after the cooldown one probe recloses the circuit.
func TestChaosBreakerDegradedServing(t *testing.T) {
	s := New(Config{
		Workers:          4,
		CacheEntries:     512,
		AdmitConcurrent:  8,
		BreakerThreshold: 3,
		BreakerWindow:    time.Minute,
		BreakerCooldown:  100 * time.Millisecond,
		// Immediate horizon: any hit served while degraded is stale.
		BreakerStaleAfter: time.Nanosecond,
		// Distinct cold keys each fail once; keep the per-key quarantine
		// from absorbing the failures before the breaker sees three.
		QuarantineThreshold: 1000,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const warmBody = `{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`
	if status, b := postJSON(t, ts.URL+"/v1/rules", warmBody); status != http.StatusOK {
		t.Fatalf("warm-up: %d %s", status, b)
	}

	// Storm: every flight fails with an unclassified internal error.
	errInjected := errors.New("solver backend down")
	clear := faultinject.Set(faultinject.SiteServerFlight, func(context.Context) error { return errInjected })
	t.Cleanup(clear)
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"node":"0.25","level":%d,"dutyCycle":0.3,"j0MA":1.8}`, 1+i)
		if status, _ := postJSON(t, ts.URL+"/v1/rules", body); status != http.StatusInternalServerError {
			t.Fatalf("storm request %d: status %d, want 500", i, status)
		}
	}
	if !s.Breaker().Degraded() {
		t.Fatal("three internal failures did not trip the breaker")
	}

	// Warm key: still served, marked stale; sleep past the (1ns) horizon.
	time.Sleep(time.Millisecond)
	status, b := postJSON(t, ts.URL+"/v1/rules", warmBody)
	if status != http.StatusOK {
		t.Fatalf("warm key rejected while degraded: %d %s", status, b)
	}
	var rr RulesResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Cached || !rr.Stale {
		t.Errorf("degraded warm hit: cached=%v stale=%v, want true/true", rr.Cached, rr.Stale)
	}
	if s.Metrics().StaleServed.Load() == 0 {
		t.Error("StaleServed never advanced")
	}

	// Cold key: fast 503 with a Retry-After hint.
	resp, err := http.Post(ts.URL+"/v1/rules", "application/json",
		strings.NewReader(`{"node":"0.25","level":4,"dutyCycle":0.7,"j0MA":1.8}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold miss while open: status %d, want 503: %s", resp.StatusCode, b)
	}
	var apiErr apiError
	if err := json.Unmarshal(b, &apiErr); err != nil || apiErr.Error.Code != "breaker_open" {
		t.Errorf("open-breaker response not structured: %s", b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open-breaker 503 missing Retry-After")
	}
	if s.Breaker().ShortCircuits() == 0 {
		t.Error("ShortCircuits never advanced")
	}

	// Heal the backend; after the cooldown the next miss is the probe and
	// recloses the circuit.
	clear()
	time.Sleep(150 * time.Millisecond)
	status, b = postJSON(t, ts.URL+"/v1/rules",
		`{"node":"0.25","level":4,"dutyCycle":0.7,"j0MA":1.8}`)
	if status != http.StatusOK {
		t.Fatalf("probe request failed: %d %s", status, b)
	}
	if s.Breaker().Degraded() {
		t.Error("probe success did not reclose the breaker")
	}
	if s.Breaker().Reclosed() == 0 {
		t.Error("Reclosed never advanced")
	}
	// Healthy again: fresh hits are no longer marked stale.
	status, b = postJSON(t, ts.URL+"/v1/rules", warmBody)
	if status != http.StatusOK {
		t.Fatal("warm key failed after reclose")
	}
	var healthy RulesResponse
	if err := json.Unmarshal(b, &healthy); err != nil {
		t.Fatal(err)
	}
	if healthy.Stale {
		t.Error("hit marked stale after the breaker reclosed")
	}
	waitQuiescent(t, s, 5*time.Second)
}
