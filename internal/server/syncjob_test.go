package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"dsmtherm/internal/jobs"
	"dsmtherm/internal/lifetime"
)

// TestSyncAndJobBodiesByteIdentical pins that a synchronous request and
// the same request run as a job answer with the same HTTP body, byte for
// byte, when the job spans more than one chunk: the 64×64 chipcheck at
// the sync grid cap (8064 branches) and a multi-range lifetime study.
func TestSyncAndJobBodiesByteIdentical(t *testing.T) {
	_, ts, _ := newJobsServer(t, jobs.Config{})
	cases := []struct {
		name, route, body string
		minChunks         int
	}{
		{"chipcheck", "/v1/chipcheck",
			`{"node":"0.10","nx":64,"ny":64,"padRing":true,"uniformLoadA":1.5,` +
				`"loads":[{"i":7,"j":50,"amps":0.02},{"i":33,"j":12,"amps":0.02}],"includeSegments":true}`, 2},
		{"lifetime", "/v1/lifetime",
			`{"segments":[{"count":500000,"tempC":105,"jMA":0.4},{"count":20000,"tempC":135,"jMA":1.1}],` +
				`"samples":` + strconv.Itoa(3*lifetime.RangeSamples+100) + `,"seed":3,"rho":0.2}`, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, syncBody := postJSON(t, ts.URL+c.route, c.body)
			if status != http.StatusOK {
				t.Fatalf("sync: %d %s", status, syncBody)
			}
			status, body := postJSON(t, ts.URL+"/v1/jobs", `{"type":"`+c.name+`","`+c.name+`":`+c.body+`}`)
			if status != http.StatusAccepted {
				t.Fatalf("submit: %d %s", status, body)
			}
			var v jobs.View
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatal(err)
			}
			if v.Chunks < c.minChunks {
				t.Fatalf("job has %d chunks, want ≥ %d", v.Chunks, c.minChunks)
			}
			if fin := pollJob(t, ts.URL, v.ID); fin.Status != jobs.StatusDone {
				t.Fatalf("job %s: %q", fin.Status, fin.Error)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			jobBody, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result: %d %s", resp.StatusCode, jobBody)
			}
			if !bytes.Equal(syncBody, jobBody) {
				t.Fatalf("sync body (%d bytes) differs from job result (%d bytes)", len(syncBody), len(jobBody))
			}
		})
	}
}
