package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It is NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// statWindow is the sub-window length for windowed statistics.
const statWindow = time.Second

// windowed cuts each phase (all of length phase, call times relative to
// the phase start) into consecutive statWindow windows, files each call
// under the window holding the time picked by at, applies stat to the
// values of each window, and returns the median over all windows with
// the window count. A stall or a noisy neighbour then moves one window,
// not the reported figure.
func windowed(phases [][]call, phase time.Duration, at func(*call) time.Duration, value func(*call) float64, stat func([]float64) float64) (float64, int) {
	full := int(phase / statWindow) // a trailing partial window is dropped
	var per []float64
	for _, calls := range phases {
		buckets := make([][]float64, full)
		for i := range calls {
			if w := int(at(&calls[i]) / statWindow); w < full {
				buckets[w] = append(buckets[w], value(&calls[i]))
			}
		}
		for _, b := range buckets {
			if len(b) > 0 {
				per = append(per, stat(b))
			}
		}
	}
	return median(per), len(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msOf converts durations held as float nanoseconds to milliseconds.
func msOf(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / 1e6
	}
	return out
}
