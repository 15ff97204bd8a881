package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one dsmthermd subprocess listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
}

var servingRE = regexp.MustCompile(`serving on (\S+) `)

// startDaemon execs bin with flags plus a kernel-assigned loopback port
// and returns once the daemon has logged its listen address.
func startDaemon(bin string, flags []string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("dsmthermd exited before listening: %s", d.stderrTail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("dsmthermd did not log its listen address within 30s")
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(d.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("dsmthermd exited during start-up: %s", d.stderrTail())
		default:
			sleepPrecise(200 * time.Microsecond)
		}
	}
	return fmt.Errorf("dsmthermd not ready within %s", timeout)
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain overruns.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// metricsSnapshot is the subset of /metrics the benchmark reads.
type metricsSnapshot struct {
	Endpoints map[string]struct {
		Requests     uint64  `json:"requests"`
		AvgLatencyMs float64 `json:"avgLatencyMs"`
	} `json:"endpoints"`
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
	} `json:"cache"`
	Pool struct {
		Size int `json:"size"`
	} `json:"pool"`
	Admission struct {
		RejectedQueueFull uint64 `json:"rejectedQueueFull"`
		RejectedQueueWait uint64 `json:"rejectedQueueWait"`
		RejectedDraining  uint64 `json:"rejectedDraining"`
	} `json:"admission"`
	Resilience struct {
		Numeric struct {
			FallbackSolves uint64 `json:"fallbackSolves"`
		} `json:"numeric"`
	} `json:"resilience"`
	Jobs *struct {
		Manager struct {
			ChunksRun    uint64 `json:"chunksRun"`
			Checkpoints  uint64 `json:"checkpoints"`
			ChunkRetries uint64 `json:"chunkRetries"`
		} `json:"manager"`
	} `json:"jobs"`
}

func (d *daemon) metrics(ctx context.Context, hc *http.Client) (*metricsSnapshot, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/metrics"), nil)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// routeDelta returns the requests served on a route between two
// snapshots and their mean server-side latency.
func routeDelta(a, b *metricsSnapshot, route string) (n uint64, avgMs float64) {
	ea, eb := a.Endpoints[route], b.Endpoints[route]
	n = eb.Requests - ea.Requests
	if n == 0 {
		return 0, 0
	}
	return n, (eb.AvgLatencyMs*float64(eb.Requests) - ea.AvgLatencyMs*float64(ea.Requests)) / float64(n)
}

// clockTick is USER_HZ, the unit of the /proc CPU counters (100 on
// every Linux ABI Go supports).
const clockTick = 100

// procCPU returns a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procHWM returns a process's peak resident set (VmHWM), MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
