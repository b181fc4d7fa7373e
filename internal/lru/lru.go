// Package lru is the one bounded-cache primitive behind the simulator's
// in-memory caches (job results, the trace corpus, the sweep planner's
// memo, warm-state snapshots and stream analyses): a fixed-capacity map
// that evicts its least recently used entry, with O(1) Get, Put and
// Remove, and a built-in singleflight so concurrent misses on one key
// compute its value once. A weighted cache (NewWeighted) also bounds the
// summed weight of its entries, such as their size in bytes.
package lru

import (
	"context"
	"errors"
	"sync"
)

// Backing is a persistent byte store behind a cache: the service wires
// the trace corpus and the snapshot manager to its crash-safe store
// through it. Save is write-behind and may drop on failure, so only
// values that can be recomputed belong behind one.
type Backing interface {
	Load(key string) ([]byte, bool)
	Save(key string, val []byte)
}

// Origin says where a Do result came from.
type Origin int

const (
	// Computed: this call ran fn.
	Computed Origin = iota
	// Cached: the value was already in the cache.
	Cached
	// Shared: this call waited on a concurrent call's fn.
	Shared
)

// errPanicked is what waiters receive when the call they waited on
// panicked; the panic itself continues in that call's goroutine.
var errPanicked = errors.New("lru: the call computing this key panicked")

// Cache is a bounded LRU map, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	max    int
	weigh  func(V) int64 // nil for an unweighted cache, whose entries weigh 0
	budget int64         // the most the entries may weigh together
	weight int64         // what the cached entries weigh together
	items  map[K]*entry[K, V]
	root   entry[K, V] // list sentinel: root.next is the MRU entry, root.prev the LRU one
	flight map[K]*call[V]
}

type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
	weight     int64
}

// call is one running Do whose result other callers of the key wait on.
// val and err are written before done is closed, so a waiter reading
// them after <-done needs no lock.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most max entries (at least one).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max < 1 {
		max = 1
	}
	c := &Cache[K, V]{max: max, items: make(map[K]*entry[K, V]), flight: make(map[K]*call[V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// NewWeighted returns a cache holding at most max entries that together
// weigh at most budget, where an entry weighs weigh(val) (which must not
// be negative). An entry that alone weighs more than budget is not kept,
// and evicts nothing; a negative budget counts as zero.
func NewWeighted[K comparable, V any](max int, budget int64, weigh func(V) int64) *Cache[K, V] {
	if budget < 0 {
		budget = 0
	}
	c := New[K, V](max)
	c.weigh, c.budget = weigh, budget
	return c
}

// Get returns the value cached under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key)
}

// Put caches val under key as the most recently used entry. When that
// takes the cache past its capacity, the least recently used entry is
// dropped and its key returned with evicted set. A weighted cache may
// drop further entries to get back under its budget; Put reports the
// first.
func (c *Cache[K, V]) Put(key K, val V) (old K, evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.put(key, val)
}

// Remove drops key and reports whether it was cached.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if ok {
		c.drop(e)
	}
	return ok
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Do returns the value for key: from the cache, else from a concurrent
// Do already computing it, else by calling fn. A value fn returns with a
// nil error is cached; an error goes to this call and to its waiters but
// is not cached, so a later Do calls fn again. A waiter whose ctx ends
// stops waiting and returns ctx.Err(); the running fn is not disturbed.
// If fn panics, the panic continues in this call and its waiters get an
// error.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, Origin, error) {
	c.mu.Lock()
	if v, ok := c.get(key); ok {
		c.mu.Unlock()
		return v, Cached, nil
	}
	if fc, ok := c.flight[key]; ok {
		c.mu.Unlock()
		select {
		case <-fc.done:
			return fc.val, Shared, fc.err
		case <-ctx.Done():
			var zero V
			return zero, Shared, ctx.Err()
		}
	}
	fc := &call[V]{done: make(chan struct{}), err: errPanicked}
	c.flight[key] = fc
	c.mu.Unlock()

	// The flight must come down and done must close however fn returns:
	// a panic that skipped this would strand every waiter on the key.
	defer func() {
		c.mu.Lock()
		if fc.err == nil {
			c.put(key, fc.val)
		}
		delete(c.flight, key)
		c.mu.Unlock()
		close(fc.done)
	}()
	fc.val, fc.err = fn()
	return fc.val, Computed, fc.err
}

func (c *Cache[K, V]) get(key K) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	e.unlink()
	c.pushFront(e)
	return e.val, true
}

func (c *Cache[K, V]) put(key K, val V) (old K, evicted bool) {
	var w int64
	if c.weigh != nil {
		w = c.weigh(val)
	}
	e, ok := c.items[key]
	if w > c.budget {
		// Too heavy to keep at all: evicting everything else would not
		// make room, so nothing else goes.
		if ok {
			c.drop(e)
			return key, true
		}
		return old, false
	}
	if ok {
		c.weight -= e.weight
		e.val = val
		e.unlink()
	} else {
		e = &entry[K, V]{key: key, val: val}
		c.items[key] = e
	}
	e.weight = w
	c.weight += w
	c.pushFront(e)
	for len(c.items) > c.max || c.weight > c.budget {
		victim := c.root.prev
		c.drop(victim)
		if !evicted {
			old, evicted = victim.key, true
		}
	}
	return old, evicted
}

func (c *Cache[K, V]) drop(e *entry[K, V]) {
	e.unlink()
	delete(c.items, e.key)
	c.weight -= e.weight
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.next.prev = e
	c.root.next = e
}

func (e *entry[K, V]) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}
