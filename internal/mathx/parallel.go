package mathx

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(ctx, i) for every i in [0, n) on min(n, workers)
// goroutines that claim indices from one atomic counter, and blocks
// until every started task returns. It is the module's only fan-out
// loop: the server's worker pool and netcheck's standalone signoff both
// schedule through it. workers < 1 runs the tasks serially on the
// calling goroutine, as does workers == 1.
//
// The first task error cancels the derived ctx the tasks receive, stops
// further indices from being claimed, and is returned. If the parent
// ctx ends first, unclaimed indices are abandoned and its error is
// returned. The result is normalized so callers classify it with
// errors.Is alone: when the parent ended, the error matches
// parent.Err() even if a task error won the race to set the
// cancellation cause, and that cause stays matchable through the same
// error.
//
// Which goroutine runs an index is unspecified, so fn must confine its
// writes to index-i state; under that contract results do not depend on
// the worker count.
func ForEach(parent context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)

	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || ctx.Err() != nil {
				return
			}
			if err := fn(ctx, i); err != nil {
				cancel(err)
			}
		}
	}
	workers = min(workers, n)
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}

	if ctx.Err() == nil {
		return nil
	}
	cause := context.Cause(ctx)
	if perr := parent.Err(); perr != nil && !errors.Is(cause, perr) {
		// The parent ended while a task error held the cause slot:
		// surface both.
		return fmt.Errorf("%w: %w", perr, cause)
	}
	return cause
}
