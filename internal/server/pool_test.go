package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dsmtherm/internal/core"
)

func TestPoolForEachRunsAll(t *testing.T) {
	p := NewPool(4)
	var ran [100]atomic.Bool
	err := p.ForEach(context.Background(), len(ran), func(ctx context.Context, i int) error {
		ran[i].Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("index %d never ran", i)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const n = 3
	p := NewPool(n)
	var cur, peak atomic.Int64
	err := p.ForEach(context.Background(), 50, func(ctx context.Context, i int) error {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		defer cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pk := peak.Load(); pk > n {
		t.Errorf("observed %d concurrent tasks, pool bound %d", pk, n)
	}
}

func TestPoolForEachError(t *testing.T) {
	p := NewPool(2)
	boom := errors.New("boom")
	var after atomic.Int64
	err := p.ForEach(context.Background(), 1000, func(ctx context.Context, i int) error {
		if i == 3 {
			return boom
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		after.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if n := after.Load(); n > 900 {
		t.Errorf("error did not stop scheduling: %d tasks ran", n)
	}
}

func TestPoolForEachCancel(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.ForEach(ctx, 10, func(ctx context.Context, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestPoolForEachErrorNormalization pins ForEach's contract that callers
// can classify the result with errors.Is alone: when the caller's
// context ends, the returned error matches ctx.Err() even if a task
// error won the race to set the cancellation cause — and the task's
// sentinel stays matchable through the same error.
func TestPoolForEachErrorNormalization(t *testing.T) {
	sentinel := errors.New("task sentinel")
	wrapped := func() error { return errors.Join(core.ErrNoSolution, sentinel) }

	cases := []struct {
		name string
		ctx  func(t *testing.T) context.Context
		fn   func(parent context.Context) func(ctx context.Context, i int) error
		want []error // every listed error must satisfy errors.Is
		not  []error // and none of these
	}{
		{
			name: "task error only",
			ctx:  func(t *testing.T) context.Context { return context.Background() },
			fn: func(parent context.Context) func(ctx context.Context, i int) error {
				return func(ctx context.Context, i int) error { return sentinel }
			},
			want: []error{sentinel},
			not:  []error{context.Canceled, context.DeadlineExceeded},
		},
		{
			name: "deadline only",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(parent context.Context) func(ctx context.Context, i int) error {
				return func(ctx context.Context, i int) error {
					<-ctx.Done()
					return nil
				}
			},
			want: []error{context.DeadlineExceeded},
			not:  []error{sentinel},
		},
		{
			name: "task error races a deadline",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(parent context.Context) func(ctx context.Context, i int) error {
				started := make(chan struct{}, 4)
				return func(ctx context.Context, i int) error {
					if i == 0 {
						// Error first, so it holds the cancellation cause —
						// but only once a sibling is running, or ForEach
						// could stop scheduling before any sibling starts…
						select {
						case <-started:
						case <-parent.Done():
						}
						return sentinel
					}
					// …while that sibling outlives the parent's deadline,
					// so ForEach returns only after the parent ctx has
					// ended.
					started <- struct{}{}
					<-parent.Done()
					return nil
				}
			},
			want: []error{context.DeadlineExceeded, sentinel},
		},
		{
			name: "wrapped package sentinel races cancellation",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(20 * time.Millisecond)
					cancel()
				}()
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(parent context.Context) func(ctx context.Context, i int) error {
				started := make(chan struct{}, 4)
				return func(ctx context.Context, i int) error {
					if i == 0 {
						select {
						case <-started:
						case <-parent.Done():
						}
						return wrapped()
					}
					started <- struct{}{}
					<-parent.Done()
					return nil
				}
			},
			want: []error{context.Canceled, core.ErrNoSolution, sentinel},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(4)
			parent := tc.ctx(t)
			err := p.ForEach(parent, 4, tc.fn(parent))
			if err == nil {
				t.Fatal("ForEach returned nil, want an error")
			}
			for _, w := range tc.want {
				if !errors.Is(err, w) {
					t.Errorf("errors.Is(err, %v) = false; err = %v", w, err)
				}
			}
			for _, n := range tc.not {
				if errors.Is(err, n) {
					t.Errorf("errors.Is(err, %v) = true, want false; err = %v", n, err)
				}
			}
		})
	}
}
