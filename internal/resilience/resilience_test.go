package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestClassOf(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassUnknown},
		{"unmarked", base, ClassUnknown},
		{"transient", Transient(base), ClassTransient},
		{"permanent", Permanent(base), ClassPermanent},
		{"poison", Poison(base), ClassPoison},
		{"numeric", Numeric(base), ClassNumeric},
		{"wrapped transient", fmt.Errorf("chunk 3: %w", Transient(base)), ClassTransient},
		{"ctx canceled", context.Canceled, ClassPermanent},
		{"ctx deadline wrapped", fmt.Errorf("op: %w", context.DeadlineExceeded), ClassPermanent},
		{"outermost mark wins", Poison(Transient(base)), ClassPoison},
	}
	for _, tc := range cases {
		if got := ClassOf(tc.err); got != tc.want {
			t.Errorf("%s: ClassOf = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMarkTransparency(t *testing.T) {
	base := errors.New("boom")
	marked := Transient(fmt.Errorf("wrap: %w", base))
	if !errors.Is(marked, base) {
		t.Fatal("mark hides the underlying error from errors.Is")
	}
	if Mark(nil, ClassTransient) != nil {
		t.Fatal("Mark(nil) != nil")
	}
	if got, want := marked.Error(), "wrap: boom"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassUnknown: "unknown", ClassTransient: "transient",
		ClassPermanent: "permanent", ClassPoison: "poison",
		ClassNumeric: "numeric", Class(99): "unknown",
	} {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 7}
	prevCeil := time.Duration(0)
	for attempt := 0; attempt < 8; attempt++ {
		d := b.Delay(attempt)
		ceil := min(10*time.Millisecond<<attempt, 80*time.Millisecond)
		if d < ceil/2 || d >= ceil {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d, ceil/2, ceil)
		}
		if ceil >= prevCeil {
			prevCeil = ceil
		}
		// Determinism: the same (seed, attempt) always yields the same delay.
		if d2 := b.Delay(attempt); d2 != d {
			t.Errorf("attempt %d: non-deterministic delay %v vs %v", attempt, d, d2)
		}
	}
	// Distinct seeds decorrelate.
	b2 := b
	b2.Seed = 8
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		if b.Delay(attempt) == b2.Delay(attempt) {
			same++
		}
	}
	if same == 8 {
		t.Error("distinct seeds produced identical schedules")
	}
	if d := b.Delay(-3); d <= 0 {
		t.Errorf("negative attempt: delay %v", d)
	}
}

// TestBackoffDelayPinned pins the exact jittered schedule (10ms base,
// 2s cap) for two seeds: chaos tests replay retry timings, so the
// jitter stream must not drift when its mixer changes home.
func TestBackoffDelayPinned(t *testing.T) {
	want := map[uint64][10]time.Duration{
		7: {6949148, 19237001, 32259493, 46376168, 136445651,
			220897428, 335910268, 974762995, 1134258298, 1338489862},
		0xdeadbeef: {6462381, 19093895, 34902830, 66183166, 113160768,
			217009178, 323065045, 1240557351, 1429887062, 1893951824},
	}
	for seed, delays := range want {
		b := Backoff{Base: 10 * time.Millisecond, Cap: 2 * time.Second, Seed: seed}
		for attempt, d := range delays {
			if got := b.Delay(attempt); got != d {
				t.Errorf("seed %#x attempt %d: Delay = %d, want %d", seed, attempt, got, d)
			}
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	if d := b.Delay(0); d < 5*time.Millisecond || d >= 10*time.Millisecond {
		t.Errorf("zero-value first delay %v outside [5ms, 10ms)", d)
	}
	if d := b.Delay(100); d >= 2*time.Second {
		t.Errorf("zero-value delay exceeds default cap: %v", d)
	}
}

func TestBackoffWaitHonorsContext(t *testing.T) {
	b := Backoff{Base: time.Minute, Cap: time.Minute}
	cause := errors.New("job cancelled")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	start := time.Now()
	err := b.Wait(ctx, 0)
	if !errors.Is(err, cause) {
		t.Fatalf("Wait under cancelled ctx: err = %v, want cause", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Wait slept through cancellation")
	}
}

func TestBackoffWaitCompletes(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Cap: time.Millisecond}
	if err := b.Wait(context.Background(), 0); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestBudget(t *testing.T) {
	b := NewBudget(2)
	if !b.Take() || !b.Take() {
		t.Fatal("budget refused tokens it holds")
	}
	if b.Take() {
		t.Fatal("budget granted a third token of two")
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", b.Remaining())
	}
	if NewBudget(-5).Take() {
		t.Fatal("negative budget granted a token")
	}
	var nilB *Budget
	if nilB.Take() || nilB.Remaining() != 0 {
		t.Fatal("nil budget misbehaves")
	}
}
