package planner

import (
	"context"
	"errors"

	"xbc/internal/lru"
)

// Memo is the cross-plan reuse layer: a bounded LRU of computed values
// whose singleflight coalesces concurrent plans (e.g. overlapping sweeps
// submitted together) executing the same key onto one run. It is safe
// for concurrent use and deliberately value-agnostic — it stores
// whatever the cell's Run returned, trusting the key to be a content
// address.
type Memo struct {
	c *lru.Cache[string, Result]
}

// NewMemo returns a memo holding at most capacity values (default 256
// when capacity <= 0).
func NewMemo(capacity int) *Memo {
	if capacity <= 0 {
		capacity = 256
	}
	return &Memo{c: lru.New[string, Result](capacity)}
}

// Get returns the cached value for key, refreshing its recency.
func (m *Memo) Get(key string) (any, bool) {
	r, ok := m.c.Get(key)
	return r.Value, ok
}

// Len returns the number of cached values.
func (m *Memo) Len() int { return m.c.Len() }

// Source exposes the memo's value cache as a probe source named "memo".
func (m *Memo) Source() Source {
	return Source{Name: "memo", Load: func(key string) (any, bool) { return m.Get(key) }}
}

// errUncached marks a leader's failed or aborted result: it reaches the
// waiters but stays out of the cache, so a later plan retries.
var errUncached = errors.New("planner: result not cached")

// do serves key from the cache, attaches to an in-flight execution of it,
// or becomes the leader running fn. Waiters surface a successful leader
// result as StatusCoalesced and propagate failures/aborts as their own; a
// waiter whose own context is cancelled stops waiting and reports
// StatusAborted without disturbing the leader.
func (m *Memo) do(ctx context.Context, key string, fn func() Result) Result {
	r, origin, err := m.c.Do(ctx, key, func() (Result, error) {
		r := fn()
		if r.Status != StatusSimulated && r.Status != StatusReused {
			return r, errUncached
		}
		return r, nil
	})
	switch {
	case origin == lru.Computed:
		return r
	case origin == lru.Cached:
		return Result{Status: StatusReused, Source: "memo", Value: r.Value}
	case err == nil:
		return Result{Status: StatusCoalesced, Value: r.Value}
	case errors.Is(err, errUncached):
		// The leader reported the run against its own plan's report; this
		// waiter's cell still needs a synthesized row in its plan.
		r.reported = false
		return r
	case ctx.Err() != nil:
		return Result{Status: StatusAborted}
	default: // the leader panicked
		return Result{Status: StatusFailed, Err: err}
	}
}
