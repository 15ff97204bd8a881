package server

import (
	"fmt"
	"testing"
	"time"
)

func TestQuarantineThresholdAndRelease(t *testing.T) {
	q := NewQuarantine(3, time.Minute, 50*time.Millisecond, 16)

	// Below threshold: tracked but not embargoed.
	for i := 0; i < 2; i++ {
		if q.RecordFailure("k") {
			t.Fatalf("failure %d embargoed before threshold", i+1)
		}
		if _, quarantined := q.Check("k"); quarantined {
			t.Fatalf("Check quarantined after %d failures, threshold 3", i+1)
		}
	}
	if got := q.Tracked(); got != 1 {
		t.Fatalf("Tracked = %d, want 1", got)
	}

	// Third failure trips the embargo.
	if !q.RecordFailure("k") {
		t.Fatal("threshold failure did not embargo")
	}
	retry, quarantined := q.Check("k")
	if !quarantined {
		t.Fatal("embargoed key not rejected")
	}
	if retry <= 0 || retry > 50*time.Millisecond {
		t.Errorf("retryAfter = %v, want in (0, 50ms]", retry)
	}
	if q.Active() != 1 || q.Quarantined() != 1 || q.Hits() != 1 {
		t.Errorf("gauges: active=%d quarantined=%d hits=%d, want 1/1/1",
			q.Active(), q.Quarantined(), q.Hits())
	}

	// Healthy keys are unaffected.
	if _, quarantined := q.Check("other"); quarantined {
		t.Error("unrelated key rejected")
	}

	// TTL expiry releases in place — the key re-earns embargo from a
	// clean window.
	time.Sleep(60 * time.Millisecond)
	if _, quarantined := q.Check("k"); quarantined {
		t.Fatal("embargo survived its TTL")
	}
	if q.Active() != 0 || q.Released() != 1 {
		t.Errorf("after release: active=%d released=%d, want 0/1", q.Active(), q.Released())
	}
	if q.RecordFailure("k") {
		t.Error("first failure after release embargoed immediately (window not reset)")
	}
}

func TestQuarantineSuccessClearsRecord(t *testing.T) {
	q := NewQuarantine(3, time.Minute, time.Minute, 16)
	q.RecordFailure("k")
	q.RecordFailure("k")
	q.RecordSuccess("k")
	if got := q.Tracked(); got != 0 {
		t.Fatalf("Tracked after success = %d, want 0", got)
	}
	// The counter restarted: two more failures don't reach the threshold.
	q.RecordFailure("k")
	q.RecordFailure("k")
	if _, quarantined := q.Check("k"); quarantined {
		t.Fatal("success did not reset the failure count")
	}

	// A late success on an embargoed key (solve started pre-embargo,
	// finished post) releases it early.
	q2 := NewQuarantine(1, time.Minute, time.Minute, 16)
	q2.RecordFailure("p")
	if _, quarantined := q2.Check("p"); !quarantined {
		t.Fatal("threshold-1 key not embargoed")
	}
	q2.RecordSuccess("p")
	if _, quarantined := q2.Check("p"); quarantined {
		t.Fatal("late success did not release the embargo")
	}
	if q2.Released() != 1 {
		t.Errorf("Released = %d, want 1", q2.Released())
	}
}

func TestQuarantineWindowExpiry(t *testing.T) {
	q := NewQuarantine(2, 30*time.Millisecond, time.Minute, 16)
	q.RecordFailure("k")
	time.Sleep(40 * time.Millisecond)
	// The window elapsed: this failure starts a fresh count instead of
	// tripping the embargo.
	if q.RecordFailure("k") {
		t.Fatal("stale-window failure counted toward the old window")
	}
	if _, quarantined := q.Check("k"); quarantined {
		t.Fatal("embargoed across a stale window")
	}
}

// TestQuarantineBounded pins the satellite invariant: a flood of
// distinct failing keys never grows the failure memory past maxEntries —
// the oldest record is forgotten instead.
func TestQuarantineBounded(t *testing.T) {
	const bound = 8
	q := NewQuarantine(3, time.Minute, time.Minute, bound)
	for i := 0; i < 10*bound; i++ {
		q.RecordFailure(fmt.Sprintf("key-%d", i))
		if got := q.Tracked(); got > bound {
			t.Fatalf("tracked %d records, bound %d", got, bound)
		}
	}
	if got := q.Tracked(); got != bound {
		t.Errorf("Tracked = %d, want %d", got, bound)
	}
	// Forgetting is graceful: a forgotten key simply re-earns its record.
	if _, quarantined := q.Check("key-0"); quarantined {
		t.Error("evicted record still embargoes")
	}
}

func TestQuarantineDisabled(t *testing.T) {
	var q *Quarantine
	if q.RecordFailure("k") {
		t.Error("disabled quarantine embargoed a key")
	}
	if _, quarantined := q.Check("k"); quarantined {
		t.Error("disabled quarantine rejected a key")
	}
	q.RecordSuccess("k")
	if q.Active() != 0 || q.Tracked() != 0 {
		t.Error("disabled quarantine tracked state")
	}
}
