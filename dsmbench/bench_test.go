package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/server"
)

// scheduleBytes serializes the first n open-loop requests of a seed as
// "<due ns> <body>" lines — the exact bytes the generator would send
// and when.
func scheduleBytes(seed int64, n int) []byte {
	s := newRulesStream(seed)
	p := &openLoopPlan{Rate: rulesRate}
	var out []byte
	for i := 0; i < n; i++ {
		out = strconv.AppendInt(out, int64(p.due(i)), 10)
		out = append(out, ' ')
		out = append(out, keySpace()[s.next()].body()...)
		out = append(out, '\n')
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := scheduleBytes(5, 500), scheduleBytes(5, 500)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different schedule bytes")
	}
	if bytes.Equal(a, scheduleBytes(6, 500)) {
		t.Fatal("different seeds gave the same schedule bytes")
	}
	enc := func(v any) []byte {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(enc(newChipRound(5, 3)), enc(newChipRound(5, 3))) || !bytes.Equal(enc(bulkJob(5, 2)), enc(bulkJob(5, 2))) {
		t.Fatal("same seed gave different chip inputs")
	}
	if bytes.Equal(enc(newChipRound(5, 3)), enc(newChipRound(6, 3))) || bytes.Equal(enc(bulkJob(5, 2)), enc(bulkJob(6, 2))) {
		t.Fatal("different seeds gave the same chip inputs")
	}
	if bytes.Equal(enc(newChipRound(5, 3)), enc(newChipRound(5, 4))) {
		t.Fatal("two rounds of one run repeat their inputs")
	}
}

// Every key of the rules space must solve, or the workload would count
// the daemon's correct refusals as failures.
func TestKeySpaceSolves(t *testing.T) {
	for i, k := range keySpace() {
		if _, err := rulesEngine(context.Background(), k, nil, -1, 0); err != nil {
			t.Fatalf("key %d %+v: %v", i, k, err)
		}
	}
}

func TestOpenLoopCountsStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()
	plan := &openLoopPlan{Rate: 100, Keys: make([]int, 20)} // due every 10 ms
	calls := runOpenLoop(context.Background(), c, plan, 1, "/", func(int) []byte { return nil }, newBodyStore())
	// Request 5 (index 4) stalls; request 6 was due 10 ms later and
	// had to wait behind it, so its latency must include the stall.
	if got := calls[5].latency(); got < stall-15*time.Millisecond {
		t.Fatalf("request behind the stall: latency %v, want ≥ %v", got, stall-15*time.Millisecond)
	}
	// Its send time minus due time is the daemon's fault, not the
	// generator's: the generator was not late.
	if late := calls[5].late(); late > 5*time.Millisecond {
		t.Fatalf("wait behind the stall counted as generator lateness: %v", late)
	}
	for i, cl := range calls {
		if !cl.ok() {
			t.Fatalf("call %d failed: %v %d", i, cl.Err, cl.Status)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "bench.round", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "chipcheck.solve", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "chipcheck.report", Parent: 0, Start: 20 * ms, End: 50 * ms}, // overlaps the previous child
		{Name: "mathx.cg", Parent: 0, Start: 80 * ms, End: 120 * ms},        // runs past its parent
		{Name: "mathx.spmv", Parent: 1, Start: 12 * ms, End: 14 * ms},
	}
	want := []time.Duration{40 * ms, 18 * ms, 30 * ms, 40 * ms, 2 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelfTimes(spans)
	if layers["bench"] != 40*ms || layers["chipcheck"] != 48*ms || layers["mathx"] != 42*ms {
		t.Errorf("layer self times %v", layers)
	}
}

// perturbed returns the body of a copy of want with one float field
// moved by one ulp.
func perturbed[T any](t *testing.T, want *T, bump func(*T)) []byte {
	t.Helper()
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var cp T
	if err := json.Unmarshal(b, &cp); err != nil {
		t.Fatal(err)
	}
	bump(&cp)
	out, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOracleRejectsOneULP(t *testing.T) {
	ctx := context.Background()
	want, err := rulesEngine(ctx, keySpace()[1234], nil, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := want
	got.Cached, got.Coalesced = true, true // serving flags are not results
	body, _ := json.Marshal(got)
	if err := checkRules(body, want); err != nil {
		t.Fatalf("exact body rejected: %v", err)
	}
	if checkRules(perturbed(t, &got, func(r *server.RulesResponse) { r.Solve.TmC = math.Nextafter(r.Solve.TmC, math.Inf(1)) }), want) == nil {
		t.Fatal("oracle accepted a /v1/rules body one ulp off")
	}

	p := chipParams(rand.New(rand.NewSource(1)), 12, 10, 4, true)
	chip, _, _, err := chipEngine(ctx, p, nil, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(chip)
	if err := compareChip(body, chip, nil); err != nil {
		t.Fatalf("exact chipcheck body rejected: %v", err)
	}
	if compareChip(perturbed(t, chip, func(r *chipcheck.Result) {
		seg := &r.Segments[len(r.Segments)/2]
		seg.TmC = math.Nextafter(seg.TmC, 0)
	}), chip, nil) == nil {
		t.Fatal("oracle accepted a /v1/chipcheck body one ulp off")
	}

	rep, err := lifetimeEngine(lifetime.Params{Segments: []lifetime.SegmentSpec{{Count: 10, TempC: 105, JMA: 0.4}}, Samples: 500}, nil, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(rep)
	if err := checkLifetime(body, rep); err != nil {
		t.Fatalf("exact lifetime body rejected: %v", err)
	}
	if checkLifetime(perturbed(t, rep, func(r *lifetime.Report) { r.MedianYears = math.Nextafter(r.MedianYears, 0) }), rep) == nil {
		t.Fatal("oracle accepted a /v1/lifetime body one ulp off")
	}
}

func TestWindowedMedian(t *testing.T) {
	var calls []call
	for i := 0; i < 30; i++ {
		v := time.Duration(i%10) * time.Millisecond
		if i >= 20 {
			v += time.Second // one bad window must not move the median
		}
		calls = append(calls, call{Due: time.Duration(i) * statWindow / 10, Done: time.Duration(i)*statWindow/10 + v})
	}
	p50, n := windowed([][]call{calls[:10], calls[10:]}, 3*statWindow, func(c *call) time.Duration { return c.Due },
		func(c *call) float64 { return ms(c.latency()) }, median)
	if n != 3 || p50 != 4.5 {
		t.Fatalf("windowed median %v over %d windows, want 4.5 over 3 (two phases)", p50, n)
	}
}
