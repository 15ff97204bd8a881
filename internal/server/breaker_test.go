package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dsmtherm/internal/core"
	"dsmtherm/internal/rules"
)

// TestFailureClassTaxonomy pins which errors the resilience layer
// counts. Getting this wrong in either direction is dangerous: counting
// deterministic answers (no-solution verdicts, validation errors) trips
// the breaker on ordinary traffic; missing panics lets a crashing
// solver serve 500s forever without containment.
func TestFailureClassTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"nil", nil, ""},
		{"noSolution", fmt.Errorf("solve: %w", core.ErrNoSolution), ""},
		{"coreInvalid", fmt.Errorf("x: %w", core.ErrInvalid), ""},
		{"rulesInvalid", fmt.Errorf("x: %w", rules.ErrInvalid), ""},
		{"badRequest", badRequestf("nope"), ""},
		{"canceled", context.Canceled, ""},
		{"deadline", fmt.Errorf("x: %w", context.DeadlineExceeded), ""},
		{"quarantined", ErrQuarantined, ""},
		{"breakerOpen", ErrBreakerOpen, ""},
		{"panic", &panicError{site: "pool.task", value: "boom"}, failureClassPanic},
		{"unknown", errors.New("disk on fire"), failureClassInternal},
	}
	for _, tc := range cases {
		if got := failureClass(tc.err); got != tc.want {
			t.Errorf("failureClass(%s) = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestBreakerTripShortCircuitAndReclose(t *testing.T) {
	b := NewBreaker(3, time.Minute, 30*time.Millisecond, time.Minute)

	// Below threshold: closed, everything admitted.
	for i := 0; i < 2; i++ {
		b.RecordFailure(failureClassInternal, false)
		if _, _, ok := b.Allow(); !ok {
			t.Fatalf("breaker rejected below threshold (failure %d)", i+1)
		}
	}

	// Threshold failure trips the class open.
	b.RecordFailure(failureClassInternal, false)
	if !b.Degraded() {
		t.Fatal("breaker not degraded after threshold failures")
	}
	if b.Trips() != 1 {
		t.Errorf("Trips = %d, want 1", b.Trips())
	}
	probe, retry, ok := b.Allow()
	if ok || probe {
		t.Fatal("open breaker admitted a miss")
	}
	if retry <= 0 || retry > 30*time.Millisecond {
		t.Errorf("retryAfter = %v, want in (0, cooldown]", retry)
	}
	if b.ShortCircuits() == 0 {
		t.Error("ShortCircuits did not advance")
	}

	// Cooldown elapses: half-open, exactly one probe.
	time.Sleep(40 * time.Millisecond)
	probe, _, ok = b.Allow()
	if !ok || !probe {
		t.Fatalf("half-open breaker did not grant the probe: probe=%v ok=%v", probe, ok)
	}
	if p2, _, ok2 := b.Allow(); ok2 || p2 {
		t.Fatal("second concurrent probe granted")
	}

	// Probe success recloses everything.
	b.RecordSuccess(true)
	if b.Degraded() {
		t.Fatal("breaker still degraded after probe success")
	}
	if b.Reclosed() != 1 {
		t.Errorf("Reclosed = %d, want 1", b.Reclosed())
	}
	if _, _, ok := b.Allow(); !ok {
		t.Fatal("reclosed breaker rejected")
	}
	if st := b.States(); st[failureClassInternal] != "closed" {
		t.Errorf("state = %q, want closed", st[failureClassInternal])
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b := NewBreaker(1, time.Minute, 20*time.Millisecond, time.Minute)
	b.RecordFailure(failureClassPanic, false)
	time.Sleep(30 * time.Millisecond)
	probe, _, ok := b.Allow()
	if !ok || !probe {
		t.Fatal("probe not granted after cooldown")
	}
	b.RecordFailure(failureClassPanic, true)
	if !b.Degraded() {
		t.Fatal("probe failure did not keep the breaker open")
	}
	if b.Trips() != 2 {
		t.Errorf("Trips = %d, want 2 (trip + probe re-open)", b.Trips())
	}
	// Fresh cooldown: immediately rejected again.
	if _, _, ok := b.Allow(); ok {
		t.Fatal("re-opened breaker admitted before its fresh cooldown")
	}
	// And a fresh probe after the fresh cooldown.
	time.Sleep(30 * time.Millisecond)
	if probe, _, ok := b.Allow(); !ok || !probe {
		t.Fatal("no probe after the re-open cooldown")
	}
	b.RecordSuccess(true)
	if b.Degraded() {
		t.Fatal("second probe success did not reclose")
	}
}

// TestBreakerProbeLifecycleRelease pins the probe-token plumbing: a
// probe whose request dies for lifecycle reasons must release the token
// (ProbeDone) or half-open would deadlock with no probe ever reporting.
func TestBreakerProbeLifecycleRelease(t *testing.T) {
	b := NewBreaker(1, time.Minute, 10*time.Millisecond, time.Minute)
	b.RecordFailure(failureClassInternal, false)
	time.Sleep(20 * time.Millisecond)
	probe, _, ok := b.Allow()
	if !ok || !probe {
		t.Fatal("probe not granted")
	}
	b.ProbeDone(true) // inconclusive: client walked away mid-probe
	if probe, _, ok := b.Allow(); !ok || !probe {
		t.Fatal("released probe token not re-granted")
	}
}

// TestBreakerClassesIndependent verifies one class tripping does not
// count failures for another, but DOES degrade the whole solver path
// (misses short-circuit regardless of which class tripped).
func TestBreakerClassesIndependent(t *testing.T) {
	b := NewBreaker(2, time.Minute, time.Minute, time.Minute)
	b.RecordFailure(failureClassPanic, false)
	b.RecordFailure(failureClassInternal, false)
	if b.Degraded() {
		t.Fatal("one failure each should not trip either class")
	}
	b.RecordFailure(failureClassPanic, false)
	if !b.Degraded() {
		t.Fatal("panic class did not trip at its own threshold")
	}
	st := b.States()
	if st[failureClassPanic] != "open" || st[failureClassInternal] != "closed" {
		t.Errorf("states = %v, want panic open / internal closed", st)
	}
	if _, _, ok := b.Allow(); ok {
		t.Error("degraded breaker admitted a miss")
	}
}

func TestBreakerDisabled(t *testing.T) {
	var b *Breaker
	for i := 0; i < 10; i++ {
		b.RecordFailure(failureClassInternal, false)
	}
	if b.Degraded() {
		t.Error("disabled breaker degraded")
	}
	if probe, _, ok := b.Allow(); !ok || probe {
		t.Error("disabled breaker gated a miss")
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	b := NewBreaker(2, 30*time.Millisecond, time.Minute, time.Minute)
	b.RecordFailure(failureClassInternal, false)
	time.Sleep(40 * time.Millisecond)
	b.RecordFailure(failureClassInternal, false)
	if b.Degraded() {
		t.Fatal("failures across a stale window tripped the breaker")
	}
}

// TestBreakerStale: hits are marked stale only while degraded and only
// once past the breaker's freshness horizon.
func TestBreakerStale(t *testing.T) {
	b := NewBreaker(1, time.Minute, time.Minute, time.Second)
	old := time.Now().Add(-time.Hour)
	if b.Stale(old) {
		t.Error("healthy breaker marked an old hit stale")
	}
	b.RecordFailure(failureClassInternal, false)
	if !b.Stale(old) {
		t.Error("degraded breaker served an old hit as fresh")
	}
	if b.Stale(time.Now()) {
		t.Error("degraded breaker marked a fresh hit stale")
	}
	var nilBreaker *Breaker
	if nilBreaker.Stale(old) {
		t.Error("nil breaker marked a hit stale")
	}
}
