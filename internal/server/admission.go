package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Admission is the bounded wait-queue in front of the solver-bearing
// endpoints. It exists so that a full-chip batch landing on the daemon
// degrades into fast, structured rejections instead of an unbounded pile
// of goroutines all contending for the worker pool:
//
//   - at most `slots` requests are admitted (doing solver work) at once;
//   - at most `maxQueue` further requests wait for a slot; any beyond
//     that are rejected immediately with ErrQueueFull (HTTP 429);
//   - no request waits longer than `maxWait`; one that would is rejected
//     with ErrQueueWait (HTTP 503 + Retry-After).
//
// The queue is FIFO in the limit of the runtime's channel fairness; the
// bound is what matters, not strict ordering.
type Admission struct {
	slots    chan struct{}
	waiting  atomic.Int64
	maxQueue int64
	maxWait  time.Duration
}

// NewAdmission builds an admission gate with the given concurrency
// slots (at least 1), queue depth (0 = no waiting: saturation rejects
// immediately), and maximum queue wait.
func NewAdmission(slots, maxQueue int, maxWait time.Duration) *Admission {
	return &Admission{
		slots:    make(chan struct{}, slots),
		maxQueue: int64(maxQueue),
		maxWait:  maxWait,
	}
}

// Acquire admits the caller, blocking in the wait-queue if the slots are
// full. It returns a release func on success, or ErrQueueFull /
// ErrQueueWait / the ctx error on rejection. release must be called
// exactly once.
//
// The queue wait is clamped to the caller's remaining deadline budget:
// maxWait is one global bound, but a route with a tight
// per-endpoint deadline must not spend its whole budget queued and
// "arrive pre-expired" — when the clamped wait is exhausted (whether
// the timer or the deadline fires first; they are the same instant),
// the rejection is normalized to ErrQueueWait so the client sees the
// honest backpressure signal (503 + Retry-After), not a deadline burn.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		return a.releaseFunc(), nil
	default:
	}
	// Saturated: join the bounded queue or bounce.
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		return nil, ErrQueueFull
	}
	defer a.waiting.Add(-1)
	wait, clamped := a.maxWait, false
	if d, ok := ctx.Deadline(); ok {
		if budget := time.Until(d); budget < wait {
			wait, clamped = budget, true
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return a.releaseFunc(), nil
	case <-timer.C:
		return nil, ErrQueueWait
	case <-ctx.Done():
		if clamped && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The deadline-clamped timer and the deadline itself race;
			// both mean "spent the whole permitted wait queued".
			return nil, ErrQueueWait
		}
		return nil, ctx.Err()
	}
}

func (a *Admission) releaseFunc() func() {
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			<-a.slots
		}
	}
}

// Slots returns the admission concurrency bound.
func (a *Admission) Slots() int { return cap(a.slots) }

// InUse returns the number of admitted requests right now.
func (a *Admission) InUse() int { return len(a.slots) }

// Waiting returns the current wait-queue occupancy.
func (a *Admission) Waiting() int64 { return a.waiting.Load() }

// QueueDepth returns the wait-queue bound.
func (a *Admission) QueueDepth() int { return int(a.maxQueue) }

// MaxWait returns the queue-wait bound.
func (a *Admission) MaxWait() time.Duration { return a.maxWait }
