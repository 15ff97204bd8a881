package server

import (
	"context"
	"sync/atomic"

	"dsmtherm/internal/mathx"
)

// Pool is a counting-semaphore worker pool shared by all requests: it
// bounds the total solver concurrency of the daemon regardless of how
// many requests are in flight, so a burst of wide sweeps cannot fork an
// unbounded number of goroutines.
type Pool struct {
	sem chan struct{}
	// panics, when set (the Server wires it to its metrics), counts
	// panics recovered at the task boundary.
	panics *atomic.Uint64
}

// NewPool builds a pool admitting n concurrent tasks (n >= 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Size returns the concurrency bound.
func (p *Pool) Size() int { return cap(p.sem) }

// InUse returns the number of pool slots currently held. It is a
// point-in-time gauge for /metrics and tests.
func (p *Pool) InUse() int { return len(p.sem) }

// ForEach runs fn(0..n-1) across the pool through mathx.ForEach,
// blocking until every started task finishes. At most Size() goroutines
// start, and each takes one pool slot per task, so admission and the
// global bound are per task while goroutines are reused across tasks.
// A task whose ctx ends while it waits for a slot returns without
// running. The first task error cancels the derived context, stops new
// tasks from being scheduled, and is returned; if the caller's ctx is
// cancelled first, unscheduled indices are abandoned and the
// cancellation error is returned. Tasks observe cancellation through
// the ctx they receive.
//
// The returned error is normalized so callers can classify it with
// errors.Is alone: when the caller's ctx ended, the result always
// matches ctx.Err() (context.DeadlineExceeded or context.Canceled) even
// if a sibling task's error won the race to set the cancellation cause —
// and the cause, task sentinels included, stays matchable through the
// same error.
func (p *Pool) ForEach(parent context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return mathx.ForEach(parent, n, p.Size(), func(ctx context.Context, i int) (err error) {
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			return nil
		}
		defer func() { <-p.sem }()
		// Recovery boundary: a panicking task becomes this ForEach's
		// error instead of crashing the process. The deferred slot
		// release above still runs, so a panic can never leak pool
		// capacity.
		defer recoverTo(&err, "pool.task", p.panics)
		return fn(ctx, i)
	})
}
