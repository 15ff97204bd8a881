package server

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Quarantine is the bounded negative cache over canonical solve/deck
// keys: failure memory for the daemon. A key whose compute panics or
// fails non-deterministically (anything failureClass recognizes —
// core.ErrNoSolution and validation errors are valid, cacheable answers
// and never count) repeatedly within a window is embargoed for a TTL,
// and requests for it are answered with an immediate structured 422
// ("quarantined") + Retry-After instead of burning a pool slot on a
// solve that keeps blowing up.
//
// The store is LRU-bounded independently of the result cache: poison
// keys must never evict healthy solve results, and a flood of distinct
// failing keys must never grow the failure memory without bound (the
// oldest record is dropped instead — forgetting a poison key early
// costs at most one more failure round, never correctness).
//
// Check's fast path is one atomic load: with no key currently
// quarantined, nothing on the serving path takes the lock.
type Quarantine struct {
	threshold  int           // failures within window to quarantine
	window     time.Duration // failure-counting window
	ttl        time.Duration // embargo length once quarantined
	maxEntries int           // bound on tracked keys (failure records)

	// active gauges keys currently embargoed; it gates Check's fast
	// path. tracked gauges failure records (embargoed or not) and gates
	// RecordSuccess.
	active  atomic.Int64
	tracked atomic.Int64

	mu  sync.Mutex
	lru *list.List               // front = most recently touched record
	m   map[string]*list.Element // key -> element holding *quarantineEntry

	quarantined atomic.Uint64 // keys embargoed (monotonic)
	hits        atomic.Uint64 // requests rejected by an active embargo
	released    atomic.Uint64 // embargoes expired or cleared by a success
}

type quarantineEntry struct {
	key       string
	failures  int
	firstFail time.Time // window start
	until     time.Time // zero while tracked-but-not-embargoed
}

// NewQuarantine builds a quarantine tracking at most maxEntries (at
// least 1) failure records. A nil *Quarantine is inert: Check and
// Record are no-ops.
func NewQuarantine(threshold int, window, ttl time.Duration, maxEntries int) *Quarantine {
	return &Quarantine{
		threshold:  threshold,
		window:     window,
		ttl:        ttl,
		maxEntries: maxEntries,
		lru:        list.New(),
		m:          make(map[string]*list.Element),
	}
}

// Check reports whether key is currently embargoed and, if so, how long
// until the embargo lifts (the Retry-After hint). An expired embargo is
// released on the spot.
func (q *Quarantine) Check(key string) (retryAfter time.Duration, quarantined bool) {
	if q == nil || q.active.Load() == 0 {
		return 0, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	el, ok := q.m[key]
	if !ok {
		return 0, false
	}
	e := el.Value.(*quarantineEntry)
	if e.until.IsZero() {
		return 0, false
	}
	if rem := time.Until(e.until); rem > 0 {
		q.lru.MoveToFront(el)
		q.hits.Add(1)
		return rem, true
	}
	// TTL elapsed: release, dropping the failure record entirely so the
	// key re-earns quarantine from a clean window if it is still poison.
	q.remove(el)
	q.released.Add(1)
	return 0, false
}

// RecordFailure counts one quarantine-eligible failure against key and
// reports whether the key just became embargoed.
func (q *Quarantine) RecordFailure(key string) (quarantined bool) {
	if q == nil {
		return false
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	el, ok := q.m[key]
	if !ok {
		for q.lru.Len() >= q.maxEntries {
			q.remove(q.lru.Back())
		}
		el = q.lru.PushFront(&quarantineEntry{key: key, firstFail: now, failures: 0})
		q.m[key] = el
		q.tracked.Add(1)
	} else {
		q.lru.MoveToFront(el)
	}
	e := el.Value.(*quarantineEntry)
	if !e.until.IsZero() {
		return false // already embargoed (a straggler solve finished late)
	}
	if now.Sub(e.firstFail) > q.window {
		e.failures, e.firstFail = 0, now // stale window: restart the count
	}
	e.failures++
	if e.failures < q.threshold {
		return false
	}
	e.until = now.Add(q.ttl)
	q.active.Add(1)
	q.quarantined.Add(1)
	return true
}

// RecordSuccess clears key's failure record: a successful (or
// deterministically-answered) compute proves the key is not poison. A
// success can land on an embargoed key when a solve that started before
// the embargo finishes after it; that releases the embargo early.
func (q *Quarantine) RecordSuccess(key string) {
	if q == nil || q.tracked.Load() == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if el, ok := q.m[key]; ok {
		if !el.Value.(*quarantineEntry).until.IsZero() {
			q.released.Add(1)
		}
		q.remove(el)
	}
}

// remove drops a record, maintaining the gauges. Callers hold q.mu.
func (q *Quarantine) remove(el *list.Element) {
	e := el.Value.(*quarantineEntry)
	if !e.until.IsZero() {
		q.active.Add(-1)
	}
	q.lru.Remove(el)
	delete(q.m, e.key)
	q.tracked.Add(-1)
}

// Active returns the number of keys currently embargoed.
func (q *Quarantine) Active() int64 {
	if q == nil {
		return 0
	}
	return q.active.Load()
}

// Tracked returns the number of failure records currently held.
func (q *Quarantine) Tracked() int64 {
	if q == nil {
		return 0
	}
	return q.tracked.Load()
}

// Quarantined returns the monotonic count of keys embargoed.
func (q *Quarantine) Quarantined() uint64 {
	if q == nil {
		return 0
	}
	return q.quarantined.Load()
}

// Hits returns the monotonic count of requests rejected by an embargo.
func (q *Quarantine) Hits() uint64 {
	if q == nil {
		return 0
	}
	return q.hits.Load()
}

// Released returns the monotonic count of embargoes lifted (TTL expiry
// or a late success).
func (q *Quarantine) Released() uint64 {
	if q == nil {
		return 0
	}
	return q.released.Load()
}
