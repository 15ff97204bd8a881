package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dsmtherm/internal/lifetime"
)

const lifetimeBody = `{
	"segments": [
		{"count": 500000, "tempC": 105, "jMA": 0.4},
		{"count": 20000, "tempC": 135, "jMA": 1.1}
	],
	"samples": 5000,
	"seed": 3,
	"rho": 0.2
}`

func TestLifetimeEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/lifetime", lifetimeBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var rep lifetime.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Samples != 5000 || rep.Classes != 2 || rep.Segments != 520000 {
		t.Fatalf("census echo wrong: %+v", rep)
	}
	if len(rep.Quantiles) != 3 || !(rep.MinYears < rep.MedianYears && rep.MedianYears < rep.MaxYears) {
		t.Fatalf("summary wrong: %+v", rep)
	}
	if s.metrics.Lifetimes.Load() != 1 || s.metrics.LifetimeSamples.Load() != 5000 {
		t.Fatalf("metrics not bumped: requests=%d samples=%d",
			s.metrics.Lifetimes.Load(), s.metrics.LifetimeSamples.Load())
	}

	// Same body, same bytes: the sampling path is deterministic.
	_, body2 := postJSON(t, ts.URL+"/v1/lifetime", lifetimeBody)
	if string(body) != string(body2) {
		t.Fatal("repeat request must return identical bytes")
	}
}

func TestLifetimeEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed json", `{"segments":[`},
		{"unknown field", `{"segments":[{"count":1,"tempC":100,"jMA":1}],"bogus":1}`},
		{"empty census", `{"segments":[]}`},
		{"bad metal", `{"metal":"unobtainium","segments":[{"count":1,"tempC":100,"jMA":1}]}`},
		{"bad rho", `{"rho":1.5,"segments":[{"count":1,"tempC":100,"jMA":1}]}`},
		{"bad quantile", `{"quantiles":[2],"segments":[{"count":1,"tempC":100,"jMA":1}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/lifetime", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, body)
			}
			if code := errorCode(t, body); code != "invalid_request" {
				t.Fatalf("code %q, want invalid_request", code)
			}
		})
	}
}

// TestLifetimeCapRedirectsToJobs: sample counts above
// maxLifetimeSamples are rejected before any sampling, with a hint
// naming the bulk-lane job type.
func TestLifetimeCapRedirectsToJobs(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"samples": ` + strconv.Itoa(maxLifetimeSamples+1) + `, "segments": [{"count": 10, "tempC": 110, "jMA": 0.5}]}`
	status, resp := postJSON(t, ts.URL+"/v1/lifetime", body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, resp)
	}
	if !strings.Contains(string(resp), "lifetime") || !strings.Contains(string(resp), "job") {
		t.Fatalf("cap error must point at the job lane: %s", resp)
	}
}

// TestLifetimeTimeoutMidRun: /v1/lifetime checks its deadline between
// sample ranges, so a route timeout far below the full sampling time
// answers a structured 504 and frees its pool slot long before the
// samples would have finished. The bound is relative to an uncancelled
// run of the same study measured here, so it holds on any machine.
func TestLifetimeTimeoutMidRun(t *testing.T) {
	body := `{"segments":[{"count":500000,"tempC":105,"jMA":0.4},{"count":20000,"tempC":135,"jMA":1.1}],` +
		`"samples":200000,"seed":3,"rho":0.2}` // the default sync cap

	_, ts := newTestServer(t)
	start := time.Now()
	if status, resp := postJSON(t, ts.URL+"/v1/lifetime", body); status != http.StatusOK {
		t.Fatalf("uncancelled run: status %d: %s", status, resp)
	}
	full := time.Since(start)

	s := New(Config{Workers: 2, CacheEntries: 16,
		EndpointTimeouts: map[string]time.Duration{"/v1/lifetime": full / 20}})
	cts := httptest.NewServer(s.Handler())
	t.Cleanup(cts.Close)
	start = time.Now()
	status, resp := postJSON(t, cts.URL+"/v1/lifetime", body)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, resp)
	}
	if code := errorCode(t, resp); code != "timeout" {
		t.Fatalf("code %q, want timeout", code)
	}
	if elapsed > full/2 {
		t.Fatalf("timed-out request held its slot %v; the uncancelled run took %v", elapsed, full)
	}
	waitQuiescent(t, s, time.Second)
}

// TestLifetimeFanOutByteIdentical: /v1/lifetime fans its sample ranges
// across the pool, and the body is the same bytes at every pool size —
// and equal to the report of one serial pass over the whole range.
// The sample counts sit below, at and just over one range, plus the
// signoff-round size.
func TestLifetimeFanOutByteIdentical(t *testing.T) {
	const census = `"segments":[{"count":500000,"tempC":105,"jMA":0.4},{"count":20000,"tempC":135,"jMA":1.1}],` +
		`"seed":3,"rho":0.2`
	pools := []int{1, 2, 8}
	servers := make([]*httptest.Server, len(pools))
	for k, workers := range pools {
		servers[k] = httptest.NewServer(New(Config{Workers: workers, CacheEntries: 16}).Handler())
		t.Cleanup(servers[k].Close)
	}
	for _, n := range []int{100, lifetime.RangeSamples, lifetime.RangeSamples + 1, 50000} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			body := `{` + census + `,"samples":` + strconv.Itoa(n) + `}`
			var p lifetime.Params
			if err := json.Unmarshal([]byte(body), &p); err != nil {
				t.Fatal(err)
			}
			m, err := lifetime.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			sk := lifetime.NewSketch()
			if err := m.SampleRange(sk, 0, n); err != nil {
				t.Fatal(err)
			}
			rep, err := m.BuildReport(sk)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			for k, ts := range servers {
				workers := pools[k]
				status, got := postJSON(t, ts.URL+"/v1/lifetime", body)
				if status != http.StatusOK {
					t.Fatalf("workers=%d: status %d: %s", workers, status, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: body differs from the serial report\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}
