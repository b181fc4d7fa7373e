package lru

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// order returns the cached keys from least to most recently used, read
// straight off the recency list.
func (c *Cache[K, V]) order() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []K
	for e := c.root.prev; e != &c.root; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}

// model is the reference: a map of values plus a recency list, least
// recently used first. A weighted model also bounds the summed weight of
// its values.
type model struct {
	max    int
	weigh  func(int) int64 // nil: unweighted
	budget int64
	vals   map[int]int
	lru    []int
}

func (m *model) weight() int64 {
	var w int64
	for _, v := range m.vals {
		if m.weigh != nil {
			w += m.weigh(v)
		}
	}
	return w
}

func (m *model) touch(k int) {
	if i := slices.Index(m.lru, k); i >= 0 {
		m.lru = slices.Delete(m.lru, i, i+1)
	}
	m.lru = append(m.lru, k)
}

func (m *model) get(k int) (int, bool) {
	v, ok := m.vals[k]
	if ok {
		m.touch(k)
	}
	return v, ok
}

func (m *model) put(k, v int) (first int, evicted bool) {
	if m.weigh != nil && m.weigh(v) > m.budget {
		if _, ok := m.vals[k]; ok {
			m.remove(k)
			return k, true
		}
		return 0, false
	}
	m.vals[k] = v
	m.touch(k)
	for len(m.lru) > m.max || m.weight() > m.budget {
		old := m.lru[0]
		m.lru = m.lru[1:]
		delete(m.vals, old)
		if !evicted {
			first, evicted = old, true
		}
	}
	return first, evicted
}

func (m *model) remove(k int) bool {
	_, ok := m.vals[k]
	if ok {
		delete(m.vals, k)
		m.lru = slices.DeleteFunc(m.lru, func(x int) bool { return x == k })
	}
	return ok
}

// TestModel drives seeded random Get/Put/Remove/Do sequences against the
// reference model and checks every result, the contents, the weight and
// the eviction order after each step. Odd seeds drive an unweighted
// cache, even seeds a weighted one whose values weigh 0 to 7, some of
// them more than the whole budget.
func TestModel(t *testing.T) {
	boom := errors.New("boom")
	weigh := func(v int) int64 { return int64(v % 8) }
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := 1 + rng.Intn(6)
		c := New[int, int](max)
		m := &model{max: max, vals: map[int]int{}}
		if seed%2 == 0 {
			m.weigh, m.budget = weigh, int64(rng.Intn(20))
			c = NewWeighted[int, int](max, m.budget, weigh)
		}
		for step := 0; step < 500; step++ {
			k, v := rng.Intn(2*max+2), rng.Int()
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(4); op {
			case 0:
				got, ok := c.Get(k)
				want, wok := m.get(k)
				if got != want || ok != wok {
					t.Fatalf("%s: Get(%d) = %d,%v, want %d,%v", where, k, got, ok, want, wok)
				}
			case 1:
				old, ev := c.Put(k, v)
				wold, wev := m.put(k, v)
				if old != wold || ev != wev {
					t.Fatalf("%s: Put(%d) evicted %d,%v, want %d,%v", where, k, old, ev, wold, wev)
				}
			case 2:
				if got, want := c.Remove(k), m.remove(k); got != want {
					t.Fatalf("%s: Remove(%d) = %v, want %v", where, k, got, want)
				}
			default:
				fail := rng.Intn(3) == 0
				calls := 0
				got, origin, err := c.Do(context.Background(), k, func() (int, error) {
					calls++
					if fail {
						return 0, boom
					}
					return v, nil
				})
				if want, ok := m.get(k); ok {
					if origin != Cached || got != want || err != nil || calls != 0 {
						t.Fatalf("%s: Do(%d) on a hit = %d,%v,%v after %d calls, want %d from the cache", where, k, got, origin, err, calls, want)
					}
					break
				}
				if origin != Computed || calls != 1 {
					t.Fatalf("%s: Do(%d) on a miss: origin %v after %d calls, want one computed call", where, k, origin, calls)
				}
				if fail {
					if !errors.Is(err, boom) {
						t.Fatalf("%s: Do(%d) err = %v, want boom", where, k, err)
					}
					break
				}
				if got != v || err != nil {
					t.Fatalf("%s: Do(%d) = %d,%v, want %d", where, k, got, err, v)
				}
				m.put(k, v)
			}
			if got := c.order(); !slices.Equal(got, m.lru) {
				t.Fatalf("%s: recency order %v, want %v", where, got, m.lru)
			}
			if c.Len() != len(m.vals) {
				t.Fatalf("%s: Len = %d, want %d", where, c.Len(), len(m.vals))
			}
			if w := c.weight; w != m.weight() || w > m.budget {
				t.Fatalf("%s: Weight = %d, want %d within the budget %d", where, w, m.weight(), m.budget)
			}
			for key, want := range m.vals {
				if got := c.items[key].val; got != want {
					t.Fatalf("%s: key %d holds %d, want %d", where, key, got, want)
				}
			}
		}
	}
}

// TestOrder pins the eviction order on hand-written sequences: each op is
// "+k" (Put), "?k" (Get, must hit) or "-k" (Remove), and evicted lists
// the keys the Puts drop, in order.
func TestOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		max     int
		ops     []string
		evicted []string
		order   []string // least recently used first
	}{
		// A Get refreshes recency, so the untouched key is the victim.
		{"get_refreshes_recency", 2, []string{"+a", "+b", "?a", "+c"}, []string{"b"}, []string{"a", "c"}},
		// Re-putting a cached key refreshes it instead of adding a duplicate.
		{"put_refreshes_existing", 2, []string{"+a", "+b", "+a", "+d"}, []string{"b"}, []string{"a", "d"}},
		// Removing frees a slot without an eviction.
		{"remove_frees_slot", 2, []string{"+a", "+b", "-a", "+c"}, nil, []string{"b", "c"}},
		// A capacity below one still holds one entry.
		{"min_capacity_one", 0, []string{"+a", "+b"}, []string{"a"}, []string{"b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.max)
			var evicted []string
			for _, op := range tc.ops {
				k := op[1:]
				switch op[0] {
				case '+':
					if old, ok := c.Put(k, 1); ok {
						evicted = append(evicted, old)
					}
				case '?':
					if _, ok := c.Get(k); !ok {
						t.Fatalf("%s: miss", op)
					}
				case '-':
					if !c.Remove(k) {
						t.Fatalf("%s: not cached", op)
					}
				}
			}
			if !slices.Equal(evicted, tc.evicted) {
				t.Fatalf("evicted %v, want %v", evicted, tc.evicted)
			}
			if got := c.order(); !slices.Equal(got, tc.order) {
				t.Fatalf("order %v, want %v", got, tc.order)
			}
		})
	}
}

// TestWeightedOversize: an entry heavier than the whole budget is not
// kept and evicts nothing else; re-putting a cached key with such a value
// drops the key. A negative budget counts as zero.
func TestWeightedOversize(t *testing.T) {
	weigh := func(v int) int64 { return int64(v) }
	c := NewWeighted[string, int](4, 5, weigh)
	c.Put("a", 2)
	c.Put("b", 3)
	if _, ev := c.Put("big", 6); ev || !slices.Equal(c.order(), []string{"a", "b"}) || c.weight != 5 {
		t.Fatalf("oversize put: evicted %v; holds %v weighing %d, want [a b] weighing 5", ev, c.order(), c.weight)
	}
	if old, ev := c.Put("a", 6); !ev || old != "a" || !slices.Equal(c.order(), []string{"b"}) || c.weight != 3 {
		t.Fatalf("oversize re-put: evicted %q,%v; holds %v weighing %d, want [b] weighing 3", old, ev, c.order(), c.weight)
	}
	neg := NewWeighted[string, int](4, -5, weigh)
	neg.Put("heavy", 1)
	neg.Put("free", 0)
	if got := neg.order(); !slices.Equal(got, []string{"free"}) {
		t.Fatalf("negative budget holds %v, want [free]", got)
	}
}

// TestDoOneExecutionPerKey races many callers over a few keys: each key's
// fn runs exactly once, and every caller sees its value, whether it led,
// waited on the flight or arrived after the value was cached.
func TestDoOneExecutionPerKey(t *testing.T) {
	const keys, callers = 4, 16
	c := New[int, int](keys)
	var runs [keys]atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < keys*callers; i++ {
		k := i % keys
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), k, func() (int, error) {
				runs[k].Add(1)
				<-release
				return k * 10, nil
			})
			if v != k*10 || err != nil {
				t.Errorf("key %d: Do = %d,%v", k, v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	for k := range runs {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d: fn ran %d times, want 1", k, n)
		}
	}
}

// signalCtx closes attached the first time Do selects on its Done
// channel, which Do does only once it is parked on another call's flight.
type signalCtx struct {
	context.Context
	once     sync.Once
	attached chan struct{}
}

func newSignalCtx(ctx context.Context) *signalCtx {
	return &signalCtx{Context: ctx, attached: make(chan struct{})}
}

func (s *signalCtx) Done() <-chan struct{} {
	s.once.Do(func() { close(s.attached) })
	return s.Context.Done()
}

// lead starts a Do on key whose fn blocks until release is closed and
// then returns result; it returns once fn is running.
func lead(c *Cache[string, int], key string, release <-chan struct{}, result func() (int, error)) <-chan error {
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		_, _, err := c.Do(context.Background(), key, func() (int, error) {
			close(entered)
			<-release
			return result()
		})
		done <- err
	}()
	<-entered
	return done
}

// A failure reaches the waiters but is not cached: the next Do runs fn.
func TestDoFailureNotCached(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	release := make(chan struct{})
	leader := lead(c, "k", release, func() (int, error) { return 0, boom })
	ctx := newSignalCtx(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, origin, err := c.Do(ctx, "k", func() (int, error) { return 1, nil })
		if origin != Shared {
			err = fmt.Errorf("origin %v, want shared: %w", origin, err)
		}
		waiter <- err
	}()
	<-ctx.attached
	close(release)
	if err := <-leader; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want boom", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want the leader's boom", err)
	}
	v, origin, err := c.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if v != 7 || origin != Computed || err != nil {
		t.Fatalf("after a failure Do = %d,%v,%v, want a fresh 7", v, origin, err)
	}
}

// A waiter whose ctx is cancelled stops waiting; the leader finishes and
// caches its value.
func TestDoCancelledWaiterAborts(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	leader := lead(c, "k", release, func() (int, error) { return 5, nil })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, origin, err := c.Do(ctx, "k", func() (int, error) {
		t.Error("a waiter must attach to the flight, not run fn")
		return 0, nil
	})
	if origin != Shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = %v,%v, want shared with context.Canceled", origin, err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	if v, ok := c.Get("k"); !ok || v != 5 {
		t.Fatalf("leader value not cached: %d,%v", v, ok)
	}
}

// A leader whose fn panics re-panics in its own goroutine, its waiters
// get an error instead of parking forever, and the next Do runs fresh.
func TestDoLeaderPanicStrandsNoWaiter(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	leader := lead(c, "k", release, func() (int, error) { panic("boom") })
	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		ctx := newSignalCtx(context.Background())
		go func() {
			_, _, err := c.Do(ctx, "k", func() (int, error) { return 1, nil })
			errs <- err
		}()
		<-ctx.attached
	}
	close(release)
	if err := <-leader; err == nil {
		t.Fatal("leader panic did not propagate")
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, errPanicked) {
			t.Fatalf("waiter err = %v, want errPanicked", err)
		}
	}
	v, origin, err := c.Do(context.Background(), "k", func() (int, error) { return 3, nil })
	if v != 3 || origin != Computed || err != nil {
		t.Fatalf("after a panic Do = %d,%v,%v, want a fresh 3", v, origin, err)
	}
}
