package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/lifetime"
)

// client is the generator's HTTP side: one transport capped at nproc
// connections, shared by every stream of a run (rules workers, signoff
// rounds, job submits and polls).
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// call is one HTTP exchange as the generator saw it. Times are offsets
// from the start of the phase: Due is when the schedule wanted it sent,
// Ready when a generator worker was free to send it (max of Due and the
// worker's previous completion), Sent when it went out, Done when the
// whole response had been read.
type call struct {
	Key                    int
	Due, Ready, Sent, Done time.Duration
	Status                 int
	Body                   []byte // nil once filed in a bodyStore
	Variant                int    // index of the body among its key's variants
	Err                    error
}

// bodyStore keeps each distinct response body once per key, so a run's
// memory does not grow with its request count (the same key's replies
// differ at most in their serving flags).
type bodyStore struct {
	mu       sync.Mutex
	variants map[int][][]byte
}

func newBodyStore() *bodyStore { return &bodyStore{variants: map[int][][]byte{}} }

// keep files a successful call's body and drops it from the call.
func (s *bodyStore) keep(cl *call) {
	if !cl.ok() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.variants[cl.Key]
	cl.Variant = slices.IndexFunc(vs, func(v []byte) bool { return bytes.Equal(v, cl.Body) })
	if cl.Variant < 0 {
		cl.Variant = len(vs)
		s.variants[cl.Key] = append(vs, cl.Body)
	}
	cl.Body = nil
}

func (c *call) ok() bool { return c.Err == nil && c.Status == http.StatusOK }

// latency is measured from the due time, so the wait a stall imposes
// on later requests is counted.
func (c *call) latency() time.Duration { return c.Done - c.Due }

// late is how far the generator itself fell behind: the gap between a
// worker being able to send and actually sending.
func (c *call) late() time.Duration { return c.Sent - c.Ready }

// runOpenLoop sends plan's requests at their due times from `workers`
// workers. A worker that is still waiting on a response when the next
// request falls due sends it late; the latency of that request still
// starts at its due time.
func runOpenLoop(ctx context.Context, c *client, plan *openLoopPlan, workers int, path string, body func(key int) []byte, store *bodyStore) []call {
	calls := make([]call, len(plan.Keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) || ctx.Err() != nil {
					return
				}
				cl := &calls[i]
				cl.Key, cl.Due = plan.Keys[i], plan.due(i)
				b := body(cl.Key)
				cl.Ready = time.Since(start)
				if wait := cl.Due - cl.Ready; wait > 0 {
					sleepPrecise(wait)
					cl.Ready = cl.Due
				}
				cl.Sent = time.Since(start)
				cl.Status, cl.Body, cl.Err = c.do(ctx, http.MethodPost, path, b)
				cl.Done = time.Since(start)
				store.keep(cl)
			}
		}()
	}
	wg.Wait()
	return calls
}

// sleepPrecise blocks for d in nanosleep(2). time.Sleep rounds
// sub-millisecond waits up to the runtime's 1 ms poll granularity when
// the process is otherwise idle, which would add up to a millisecond of
// generator lateness to every open-loop request; the kernel timer is
// good to tens of microseconds.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// runClosedLoop keeps `workers` clients sending back to back until d has
// elapsed; each request is due the moment its client's previous one
// completed.
func runClosedLoop(ctx context.Context, c *client, s *rulesStream, workers int, d time.Duration, path string, body func(key int) []byte, store *bodyStore) []call {
	var mu sync.Mutex
	var calls []call
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []call
			prev := time.Duration(0)
			for ctx.Err() == nil {
				cl := call{Key: s.next(), Due: prev, Ready: prev}
				b := body(cl.Key)
				cl.Sent = time.Since(start)
				if cl.Sent >= d {
					break
				}
				cl.Status, cl.Body, cl.Err = c.do(ctx, http.MethodPost, path, b)
				cl.Done = time.Since(start)
				store.keep(&cl)
				prev = cl.Done
				mine = append(mine, cl)
			}
			mu.Lock()
			calls = append(calls, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return calls
}

// round is one netcheck → chipcheck → lifetime signoff round.
type round struct {
	In       chipRound
	Life     lifetime.Params
	Net      call
	Chip     call
	Lifetime call
}

func (r *round) start() time.Duration { return r.Net.Sent }
func (r *round) end() time.Duration   { return r.Lifetime.Done }
func (r *round) ok() bool             { return r.Net.ok() && r.Chip.ok() && r.Lifetime.ok() }

// runSignoff drives signoff rounds from one client until d has elapsed.
// Every round has fresh seeded inputs; its lifetime census is binned
// from that round's chipcheck segments.
func runSignoff(ctx context.Context, c *client, seed int64, d time.Duration) []round {
	var out []round
	start := time.Now()
	prev := time.Duration(0)
	for i := 0; ctx.Err() == nil; i++ {
		r := round{In: newChipRound(seed, i)}
		netBody, _ := json.Marshal(&r.In.Design)
		chipBody, _ := json.Marshal(&r.In.Chip)
		post := func(cl *call, path string, body []byte, ready time.Duration) {
			cl.Due, cl.Ready = ready, ready
			cl.Sent = time.Since(start)
			cl.Status, cl.Body, cl.Err = c.do(ctx, http.MethodPost, path, body)
			cl.Done = time.Since(start)
		}
		if time.Since(start) >= d {
			break
		}
		post(&r.Net, "/v1/netcheck", netBody, prev)
		post(&r.Chip, "/v1/chipcheck", chipBody, r.Net.Done)
		var res chipcheck.Result
		switch {
		case !r.Chip.ok():
			r.Lifetime.Err = errors.New("not sent: the round's chipcheck failed")
		case json.Unmarshal(r.Chip.Body, &res) != nil:
			r.Lifetime.Err = errors.New("not sent: the round's chipcheck body does not decode")
		default:
			r.Life = censusFromSegments(res.Segments, r.In.Seed)
			lifeBody, _ := json.Marshal(&r.Life)
			post(&r.Lifetime, "/v1/lifetime", lifeBody, r.Chip.Done)
		}
		if r.Lifetime.Err != nil && r.Lifetime.Done == 0 {
			r.Lifetime.Done = time.Since(start)
		}
		prev = r.Lifetime.Done
		out = append(out, r)
	}
	return out
}

// bulkRun is one bulk chipcheck job as seen by polling.
type bulkRun struct {
	ID        string
	Submitted time.Duration
	Running   time.Duration // first poll that saw it running (0 if never)
	Done      time.Duration // first poll that saw it terminal
	Result    []byte
	Err       error
	Cancelled bool // still running when the rules phase ended
}

func (b *bulkRun) elapsed() time.Duration { return b.Done - b.Submitted }

// bulkPoll is the job poll interval: ≤2.5% of the bulk job's ≈0.8 s.
const bulkPoll = 10 * time.Millisecond

// runBulk keeps one bulk chipcheck job in flight: a new job is
// submitted as soon as the previous one finishes, until stop closes.
// started is closed once the first job is seen running.
func runBulk(ctx context.Context, c *client, seed int64, origin time.Time, stop <-chan struct{}, started chan<- struct{}) []bulkRun {
	var out []bulkRun
	signalled := false
	for k := 0; ; k++ {
		select {
		case <-stop:
			return out
		default:
		}
		p := bulkJob(seed, k)
		body, _ := json.Marshal(jobs.SubmitRequest{Type: jobs.TypeChipcheck, Chipcheck: &p})
		b := bulkRun{Submitted: time.Since(origin)}
		st, resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
		if err == nil && st != http.StatusAccepted {
			err = fmt.Errorf("job submit: status %d: %s", st, clip(resp, 0, 200))
		}
		var v jobs.View
		if err == nil {
			err = json.Unmarshal(resp, &v)
		}
		b.ID = v.ID
		for err == nil {
			select {
			case <-stop:
				c.do(ctx, http.MethodDelete, "/v1/jobs/"+b.ID, nil)
				b.Cancelled = true
				b.Done = time.Since(origin)
				return append(out, b)
			case <-time.After(bulkPoll):
			}
			st, resp, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+b.ID, nil)
			if err == nil && st != http.StatusOK {
				err = fmt.Errorf("job poll: status %d", st)
			}
			if err == nil {
				err = json.Unmarshal(resp, &v)
			}
			if err != nil {
				break
			}
			now := time.Since(origin)
			if v.Status == jobs.StatusRunning && b.Running == 0 {
				b.Running = now
				if !signalled {
					close(started)
					signalled = true
				}
			}
			if v.Status.Terminal() {
				b.Done = now
				if v.Status != jobs.StatusDone {
					err = fmt.Errorf("job %s ended %s: %s", b.ID, v.Status, v.Error)
					break
				}
				st, b.Result, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+b.ID+"/result", nil)
				if err == nil && st != http.StatusOK {
					err = fmt.Errorf("job result: status %d", st)
				}
				break
			}
		}
		b.Err = err
		out = append(out, b)
		if err != nil {
			if !signalled {
				close(started)
			}
			return out
		}
	}
}
