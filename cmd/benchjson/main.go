// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON perf record: one entry per benchmark with ns/op and any custom
// metrics, plus derived speedup pairs for benchmarks that run a baseline
// sub-benchmark ("serial" or "legacy") next to a fast one ("batch" or
// "kernel"). The context records the
// host (goos, goarch, cpu, numcpu), the Go version, and the GOMAXPROCS
// the benchmarks ran at (their -N name suffix; none means 1).
//
// By default the record goes to stdout. With -next DIR it lands in
// DIR/BENCH_<n>.json where <n> is one past the highest existing index —
// so `make bench-json` appends to the perf trajectory instead of
// clobbering the previous run's file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

type benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	procs   string             // GOMAXPROCS from the name's -N suffix
}

type speedup struct {
	Name string `json:"name"`
	// SerialNs is the baseline variant's ns/op; both variants of every
	// pair run on one goroutine.
	SerialNs float64 `json:"serial_ns_per_op"`
	FastName string  `json:"fast_variant"`
	FastNs   float64 `json:"fast_ns_per_op"`
	Speedup  float64 `json:"speedup"`
}

type report struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []benchmark       `json:"benchmarks"`
	Speedups   []speedup         `json:"speedups,omitempty"`
}

func main() {
	nextDir := flag.String("next", "", "write to DIR/BENCH_<n>.json, auto-incrementing n past the highest existing index (empty = stdout)")
	flag.Parse()
	rep := report{Context: map[string]string{
		"numcpu": strconv.Itoa(runtime.NumCPU()),
		"go":     runtime.Version(),
	}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "cpu", "pkg"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				// Keep every pkg seen; the others are identical per run.
				if key == "pkg" && rep.Context["pkg"] != "" {
					v = rep.Context["pkg"] + " " + v
				}
				rep.Context[key] = v
			}
		}
		if b, ok := parseBenchLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) > 0 {
		rep.Context["gomaxprocs"] = rep.Benchmarks[0].procs
	}
	rep.Speedups = deriveSpeedups(rep.Benchmarks)
	out := os.Stdout
	if *nextDir != "" {
		path, err := nextBenchPath(*nextDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
		fmt.Fprintln(os.Stderr, "benchjson: writing", path)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

var benchFileRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextBenchPath returns dir/BENCH_<n>.json with n one past the highest
// index already present (starting at 0 in an empty dir).
func nextBenchPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	next := 0
	for _, e := range entries {
		m := benchFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil && n+1 > next {
			next = n + 1
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkFoo/bar-8   5   118987738 ns/op   613.0 iters
func parseBenchLine(line string) (benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchmark{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return benchmark{}, false
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	name, procs := splitProcSuffix(f[0])
	b := benchmark{Name: name, Runs: runs, procs: procs}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		if f[i+1] == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[f[i+1]] = v
	}
	return b, b.NsPerOp > 0
}

// splitProcSuffix splits off the trailing -N GOMAXPROCS marker, which
// go test omits at GOMAXPROCS=1.
func splitProcSuffix(name string) (string, string) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], name[i+1:]
		}
	}
	return name, "1"
}

// speedupPairs are the {baseline, fast} sub-benchmark names a benchmark
// runs side by side: <parent>/serial next to <parent>/batch, and the
// preserved <parent>/legacy algorithm next to its <parent>/kernel
// replacement.
var speedupPairs = [][2]string{{"serial", "batch"}, {"legacy", "kernel"}}

// deriveSpeedups pairs each baseline result with its fast sibling and
// records baseline÷fast.
func deriveSpeedups(bs []benchmark) []speedup {
	byName := map[string]float64{}
	for _, b := range bs {
		byName[b.Name] = b.NsPerOp
	}
	var out []speedup
	for _, b := range bs {
		for _, pair := range speedupPairs {
			parent, ok := strings.CutSuffix(b.Name, "/"+pair[0])
			if !ok {
				continue
			}
			if ns, ok := byName[parent+"/"+pair[1]]; ok && ns > 0 {
				out = append(out, speedup{
					Name:     parent,
					SerialNs: b.NsPerOp,
					FastName: pair[1],
					FastNs:   ns,
					Speedup:  b.NsPerOp / ns,
				})
			}
		}
	}
	return out
}
