package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/lifetime"
)

// warmUp sends one small call to every route the workload uses, so the
// measured window starts with code paths and allocator pools warm. It
// is part of set-up time.
func warmUp(c *client, workload string) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	post := func(path string, v any, want int) ([]byte, error) {
		body, _ := json.Marshal(v)
		st, resp, err := c.do(ctx, http.MethodPost, path, body)
		if err == nil && st != want {
			err = fmt.Errorf("%s: status %d: %s", path, st, clip(resp, 0, 200))
		}
		return resp, err
	}
	rng := rand.New(rand.NewSource(1))
	small := chipParams(rng, 16, 16, 4, false)
	if workload == wlRulesOpenLoop || workload == wlRulesBulk {
		if _, err := post("/v1/rules", map[string]any{"node": "0.25", "level": 1}, http.StatusOK); err != nil {
			return err
		}
	}
	switch workload {
	case wlChipSignoff:
		design := netDesign(rng)
		design.Segments = design.Segments[:40]
		if _, err := post("/v1/netcheck", design, http.StatusOK); err != nil {
			return err
		}
		if _, err := post("/v1/chipcheck", small, http.StatusOK); err != nil {
			return err
		}
		life := lifetime.Params{Segments: []lifetime.SegmentSpec{{Count: 100, TempC: 101, JMA: 0.2}}, Samples: 1000}
		if _, err := post("/v1/lifetime", life, http.StatusOK); err != nil {
			return err
		}
	case wlRulesBulk:
		resp, err := post("/v1/jobs", jobs.SubmitRequest{Type: jobs.TypeChipcheck, Chipcheck: &small}, http.StatusAccepted)
		if err != nil {
			return err
		}
		var v jobs.View
		if err := json.Unmarshal(resp, &v); err != nil {
			return err
		}
		for !v.Status.Terminal() {
			time.Sleep(2 * time.Millisecond)
			st, resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil)
			if err == nil && st != http.StatusOK {
				err = fmt.Errorf("job poll: status %d", st)
			}
			if err == nil {
				err = json.Unmarshal(resp, &v)
			}
			if err != nil {
				return err
			}
		}
		st, resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"/result", nil)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("job %s %s, result status %d", v.ID, v.Status, st)
		}
		if err == nil {
			var res chipcheck.Result
			err = json.Unmarshal(resp, &res)
		}
		return err
	}
	return nil
}

// heldOutSeed is reserved for confirming performance claims: it is not
// to be used while a change is being developed (see README.md).
const heldOutSeed = 7919

// runContext is recorded with every result.
func runContext(o options, nproc int) map[string]any {
	return map[string]any{
		"workload":            o.workload,
		"seed":                o.seed,
		"heldOutSeed":         heldOutSeed,
		"seconds":             o.seconds,
		"trace":               o.trace,
		"numCPU":              runtime.NumCPU(),
		"gomaxprocsGenerator": runtime.GOMAXPROCS(0),
		"gomaxprocsDaemon":    daemonGOMAXPROCS(nproc),
		"connections":         nproc,
		"goVersion":           runtime.Version(),
		"cpuModel":            cpuModel(),
		"commit":              commit(o.root),
		"sourceSHA256":        sourceDigest(o.root),
		"daemonFlags":         "-addr 127.0.0.1:0 -jobs -jobs-dir <run dir>/jobs (all others default)",
		"rulesRatePerS":       rulesRate,
		"bulkRulesRatePerS":   bulkRulesRate,
		"rulesKeySpace":       len(keySpace()),
		"chipGrid":            fmt.Sprintf("%dx%d", chipNx, chipNy),
		"netcheckSegments":    netSegments,
		"lifetimeSamples":     lifetimeSamples,
		"bulkGrid":            fmt.Sprintf("%dx%d", bulkNx, bulkNy),
		"bulkPollMs":          ms(bulkPoll),
		"setupBoots":          setupBoots,
		"generatorMaxLateP99": ms(maxLateP99),
	}
}

// daemonGOMAXPROCS is what the daemon's Go runtime picks: GOMAXPROCS
// from the environment it inherits, else the CPU count.
func daemonGOMAXPROCS(nproc int) string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return fmt.Sprint(nproc)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git commit of root, when root is a git checkout.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout; see sourceSHA256)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root
// (build output excluded), identifying the code measured even where no
// git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
