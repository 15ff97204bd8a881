// Package resilience is the shared failure-handling vocabulary of the
// job subsystem and the numeric backbone: a classified error taxonomy
// (transient / permanent / poison / numeric), a context-aware
// exponential backoff with deterministic jitter, and a per-job retry
// budget.
//
// The taxonomy answers the one question a supervisor loop has to get
// right: *is re-running this work worth anything?* A transient fault
// (I/O hiccup, injected chaos, stolen time) clears on retry; a
// permanent fault (cancellation, invalid work) never does; a poison
// fault is deterministic for this work unit but local to it — the rest
// of the job is fine, so quarantine the unit instead of failing the
// whole job; a numeric fault (divergence, NaN, singular operator) is
// poison with a diagnosis attached.
//
// Classification is errors.Is/errors.As-transparent: Mark wraps an
// error with a class without hiding it, and ClassOf walks the wrap
// chain. Unmarked errors classify as ClassUnknown — policy for those
// belongs to the caller (the job supervisor treats unknown as
// permanent, preserving fail-fast semantics for errors written before
// this package existed).
package resilience

import (
	"context"
	"errors"
	"time"

	"dsmtherm/internal/mathx"
)

// Class is a failure class — the retry-worthiness of an error.
type Class int

const (
	// ClassUnknown is an unmarked error; the caller picks the policy.
	ClassUnknown Class = iota
	// ClassTransient faults are expected to clear on retry (with
	// backoff): injected chaos, I/O hiccups, stuck-chunk watchdog trips.
	ClassTransient
	// ClassPermanent faults never clear: cancellation, shutdown,
	// invalid work. Fail fast, never retry.
	ClassPermanent
	// ClassPoison faults are deterministic for one work unit but local
	// to it: quarantine the unit, keep the rest of the job alive.
	ClassPoison
	// ClassNumeric faults are poison with a numeric diagnosis: solver
	// divergence, NaN/Inf contamination, a singular operator. Retrying
	// identical inputs recomputes the same pathology, so they quarantine
	// like poison — but they are counted and surfaced separately.
	ClassNumeric
)

func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	case ClassPoison:
		return "poison"
	case ClassNumeric:
		return "numeric"
	default:
		return "unknown"
	}
}

// classified carries a Class through a wrap chain while staying
// errors.Is/As-transparent to the underlying error.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// Mark wraps err with a failure class. The wrapper is transparent to
// errors.Is and errors.As; a nil err returns nil. Re-marking overrides:
// the outermost mark wins in ClassOf.
func Mark(err error, class Class) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: class}
}

// Transient marks err ClassTransient (nil-safe).
func Transient(err error) error { return Mark(err, ClassTransient) }

// Permanent marks err ClassPermanent (nil-safe).
func Permanent(err error) error { return Mark(err, ClassPermanent) }

// Poison marks err ClassPoison (nil-safe).
func Poison(err error) error { return Mark(err, ClassPoison) }

// Numeric marks err ClassNumeric (nil-safe).
func Numeric(err error) error { return Mark(err, ClassNumeric) }

// ClassOf returns the failure class of err: the outermost explicit mark
// if any, ClassPermanent for context cancellation/deadline (lifecycle
// errors are never retryable work errors), ClassUnknown otherwise.
func ClassOf(err error) Class {
	if err == nil {
		return ClassUnknown
	}
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassPermanent
	}
	return ClassUnknown
}

// Backoff computes capped exponential retry delays with deterministic
// jitter. Delay(attempt) for attempt = 0, 1, 2… grows as Base·2^attempt
// up to Cap, then jitters into [d/2, d) using a splitmix64 stream seeded
// by (Seed, attempt) — fully deterministic for a given seed, so chaos
// tests replay identical schedules, while distinct seeds (one per job)
// decorrelate retry storms.
type Backoff struct {
	Base time.Duration // first delay (0 = 10ms)
	Cap  time.Duration // delay ceiling (0 = 2s)
	Seed uint64        // jitter stream selector
}

func (b Backoff) base() time.Duration {
	if b.Base > 0 {
		return b.Base
	}
	return 10 * time.Millisecond
}

func (b Backoff) cap() time.Duration {
	if b.Cap > 0 {
		return b.Cap
	}
	return 2 * time.Second
}

// Delay returns the backoff delay before retry number attempt (0-based:
// attempt 0 is the wait before the first retry).
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := b.base()
	cp := b.cap()
	for i := 0; i < attempt && d < cp; i++ {
		d *= 2
	}
	if d > cp {
		d = cp
	}
	// Equal jitter: half the exponential delay is kept, the other half
	// scales by a deterministic uniform draw, landing in [d/2, d).
	var src mathx.SplitMix64
	src.Seed(int64(b.Seed ^ uint64(attempt)*0x9e3779b97f4a7c15))
	u := src.Uint64()
	frac := float64(u>>11) / float64(1<<53) // uniform [0, 1)
	return d/2 + time.Duration(frac*float64(d/2))
}

// Wait sleeps Delay(attempt), cut short by ctx: it returns ctx's error
// (via context.Cause) if the context ends first, nil after a full sleep.
func (b Backoff) Wait(ctx context.Context, attempt int) error {
	d := b.Delay(attempt)
	if d <= 0 {
		return context.Cause(ctx)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
		return ctx.Err()
	}
}

// Budget is a per-job retry budget: a fixed number of retry tokens
// shared by all of the job's chunks, so a systematic fault (every chunk
// failing twice) cannot multiply into chunks×retries wasted compute.
// The zero Budget has no tokens; Take on it always fails.
type Budget struct {
	remaining int
}

// NewBudget returns a budget holding n retry tokens (n ≤ 0 means none).
func NewBudget(n int) *Budget {
	if n < 0 {
		n = 0
	}
	return &Budget{remaining: n}
}

// Take consumes one token, reporting whether one was available. Not
// safe for concurrent use — the job supervisor runs chunks serially.
func (b *Budget) Take() bool {
	if b == nil || b.remaining <= 0 {
		return false
	}
	b.remaining--
	return true
}

// Remaining reports the tokens left.
func (b *Budget) Remaining() int {
	if b == nil {
		return 0
	}
	return b.remaining
}
