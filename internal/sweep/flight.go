package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// flight is the one single-flight cache implementation shared by every
// stage of the engine (schedule, base, eval, and the whole-result-set
// memo). It guarantees that a value is computed at most once per key
// while the computation succeeds, shares in-flight computations between
// concurrent callers, and counts hits and misses uniformly.
//
// Error retention is the only axis on which the stages differ, so it is
// the one policy knob: retain decides whether a failed computation stays
// in the cache (deterministic failures — retrying an unschedulable
// problem cannot succeed) or is dropped so the next caller recomputes
// (caller-dependent failures, e.g. context cancellation). A nil retain
// retains every error.
//
// Cancellation semantics: ctx is consulted before starting a computation
// and while waiting on another caller's in-flight one; a computation once
// started always runs to completion and is never abandoned by its waiters
// observing cancellation elsewhere. A waiter that observes a dropped
// (non-retained) failure retries while its own context is live, so one
// cancelled caller cannot poison a concurrent one.
type flight[K comparable, V any] struct {
	// retain reports whether a computation error should stay cached.
	// nil retains all errors.
	retain func(error) bool

	mu    sync.Mutex
	slots map[K]*slot[V]

	// hits counts calls served by another caller's computation (shared
	// results and retained errors alike); misses counts computations
	// actually started. hits+misses is the number of observed requests,
	// except for calls that return early on their own cancelled context.
	hits, misses atomic.Uint64
}

// slot is one single-flight entry: the first requester computes, later
// requesters block on ready and share the outcome.
type slot[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// newFlight returns an empty flight with the given retention policy.
func newFlight[K comparable, V any](retain func(error) bool) *flight[K, V] {
	return &flight[K, V]{retain: retain, slots: map[K]*slot[V]{}}
}

// do returns the value for key, computing it with compute at most once
// concurrently and — while compute succeeds or fails deterministically —
// at most once ever. Callers that must never abandon a wait pass
// context.Background().
func (f *flight[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var zero V
	for {
		s, created, err := f.claim(ctx, key)
		if err != nil {
			return zero, err
		}
		if created {
			f.run([]K{key}, []*slot[V]{s}, func(vals []V, errs []error) {
				vals[0], errs[0] = compute()
			})
			return s.val, s.err
		}
		// Wait for the in-flight computation, but honour our own
		// context: a waiter must not be pinned to another caller's long
		// computation after its own work is cancelled.
		select {
		case <-s.ready:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		if s.err == nil {
			f.hits.Add(1)
			return s.val, nil
		}
		// The computation failed. A retained slot means the failure is
		// deterministic — share it. A dropped slot means it was
		// caller-dependent (e.g. the computing caller's cancellation):
		// retry with our own context if it is still live.
		f.mu.Lock()
		retained := f.slots[key] == s
		f.mu.Unlock()
		if retained {
			f.hits.Add(1)
			return zero, s.err
		}
		if err := ctx.Err(); err != nil {
			return zero, err
		}
	}
}

// claim returns key's slot. When there is none and ctx is live it
// creates one, counts the miss and reports created: the caller then owns
// the computation and must publish it through run. An existing slot is
// returned as is — in flight or settled — for the caller to wait on.
func (f *flight[K, V]) claim(ctx context.Context, key K) (s *slot[V], created bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.slots[key]; ok {
		return s, false, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	s = &slot[V]{ready: make(chan struct{})}
	f.slots[key] = s
	f.misses.Add(1)
	return s, true, nil
}

// run computes the claimed slots together — compute fills one value or
// error per slot — and settles them. A panicking compute must not strand
// its slots: a slot left in the map with ready never closed would block
// every concurrent and future caller for its key forever (e.g. after the
// stale-digest invariant panic in cache.go). So the panic becomes every
// slot's error — settled under the normal retention policy, so waiters
// observe a real failure — and is then re-raised on the computing
// goroutine, which is the one that owns the broken invariant.
func (f *flight[K, V]) run(keys []K, slots []*slot[V], compute func(vals []V, errs []error)) {
	vals, errs := make([]V, len(slots)), make([]error, len(slots))
	defer func() {
		if r := recover(); r != nil {
			for i, s := range slots {
				s.err = fmt.Errorf("sweep: cached computation panicked: %v", r)
				f.settle(keys[i], s)
			}
			panic(r)
		}
	}()
	compute(vals, errs)
	for i, s := range slots {
		s.val, s.err = vals[i], errs[i]
		f.settle(keys[i], s)
	}
}

// settle applies the retention policy and publishes the outcome. The
// drop-from-map must happen before close(ready): waiters distinguish
// retained from dropped failures by checking whether the slot is still
// mapped after ready closes.
func (f *flight[K, V]) settle(key K, s *slot[V]) {
	if s.err != nil && f.retain != nil && !f.retain(s.err) {
		f.mu.Lock()
		if f.slots[key] == s {
			delete(f.slots, key)
		}
		f.mu.Unlock()
	}
	close(s.ready)
}

// len returns the number of retained entries.
func (f *flight[K, V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.slots)
}
