package server

import (
	"context"
	"net/http"

	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/mathx"
)

// handleLifetime is the synchronous chip-level statistical lifetime
// path: compile the segment census, stream the Monte Carlo samples
// through quantile sketches, and report TTF quantiles against the
// design goal. Sampling is closed-form per chip (O(classes), no root
// solves), so the default cap's worth of samples finishes well inside
// a request deadline. The sample stream is cut into
// lifetime.RangeSamples ranges fanned across the shared pool, one
// sketch per range; each range checks ctx before sampling, so a
// deadline or a disconnect stops the run range by range. The sketches
// merge in index order before the report is built. SampleRange keys
// every sample on its absolute index and a merge is counter addition
// plus an exact min/max, so the report is bit-identical at any pool
// size. Bigger studies belong on the bulk job lane ("lifetime" job
// type), which chunks the same sample stream into journaled, mergeable
// sketch states.
func (s *Server) handleLifetime(w http.ResponseWriter, r *http.Request) {
	var p lifetime.Params
	if err := decodeJSON(r, &p); err != nil {
		writeError(w, err)
		return
	}
	// Compile validates without sampling, so the cap check runs before
	// any numeric work.
	model, err := lifetime.Compile(p)
	if err != nil {
		writeError(w, err)
		return
	}
	if model.Samples > maxLifetimeSamples {
		writeError(w, badRequestf("%d samples exceeds synchronous limit %d; submit a %q job instead",
			model.Samples, maxLifetimeSamples, "lifetime"))
		return
	}
	sketches := make([]*mathx.QuantileSketch, (model.Samples+lifetime.RangeSamples-1)/lifetime.RangeSamples)
	err = s.pool.ForEach(r.Context(), len(sketches), func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := i * lifetime.RangeSamples
		sketches[i] = lifetime.NewSketch()
		return model.SampleRange(sketches[i], lo, min(lo+lifetime.RangeSamples, model.Samples))
	})
	if err != nil {
		writeError(w, err)
		return
	}
	sk := sketches[0]
	for _, part := range sketches[1:] {
		if err := sk.Merge(part); err != nil {
			writeError(w, err)
			return
		}
	}
	rep, err := model.BuildReport(sk)
	if err != nil {
		writeError(w, err)
		return
	}
	s.metrics.Lifetimes.Add(1)
	s.metrics.LifetimeSamples.Add(uint64(rep.Samples))
	writeJSON(w, http.StatusOK, rep)
}
