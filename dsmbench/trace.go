package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the boundary. Parent is the index of the span
// that caused it (-1 for a root); Round groups the spans of one replayed
// request or signoff round.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Round  int           `json:"round"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	// CPU is this process's CPU time (all threads) spent inside the
	// span, so CPU/dur is how many cores the call kept busy.
	CPU time.Duration `json:"cpuNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name up to the first dot ("chipcheck.solve" →
// "chipcheck").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the same replay code runs traced and untraced.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 4096)} }

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name string, parent, round int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Round: round, CPU: selfCPU(), Start: time.Since(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.origin)
	t.spans[id].CPU = selfCPU() - t.spans[id].CPU
}

// durations returns the durations of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi time.Duration
		for k, iv := range ivs {
			switch {
			case k == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			case iv[1] > curHi:
				curHi = iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerSelfTimes sums span self times per layer.
func layerSelfTimes(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.layer()] += self[i]
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
