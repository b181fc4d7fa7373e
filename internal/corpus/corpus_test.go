package corpus

import (
	"math/rand"
	"sync"
	"testing"

	"xbc/internal/lru"
	"xbc/internal/trace"
	"xbc/internal/workload"
)

// TestCorpusSingleflight races many goroutines — like parallel runner
// cells — at the same (spec, uops) key and checks that exactly one
// generation happens and every caller gets the one cached Stream. Run
// under -race this is also the data-race proof for the sharing scheme.
func TestCorpusSingleflight(t *testing.T) {
	w, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("gcc workload missing")
	}
	c := newCorpus(8, defaultBytes)
	const callers = 16
	const uops = 30_000
	var wg sync.WaitGroup
	streams := make([]*trace.Stream, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.stream(w.Spec, uops)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			streams[i] = s
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := c.generates.Load(); n != 1 {
		t.Fatalf("generated %d times for one key, want 1", n)
	}
	for i, s := range streams {
		if s != streams[0] {
			t.Fatalf("caller %d does not share the cached stream", i)
		}
	}
}

// TestCorpusDistinctKeysNeverAlias checks the content addressing: the
// same spec at different lengths, and different specs at the same length,
// must occupy distinct entries and never hand out each other's records.
func TestCorpusDistinctKeysNeverAlias(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	doom, ok := workload.ByName("doom")
	if !ok {
		t.Fatal("doom workload missing")
	}
	c := newCorpus(8, defaultBytes)
	a, err := c.stream(gcc.Spec, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.stream(gcc.Spec, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.stream(doom.Spec, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.generates.Load(); n != 3 {
		t.Fatalf("generated %d times for three distinct keys, want 3", n)
	}
	if &a.Recs[0] == &b.Recs[0] {
		t.Fatal("same spec at different lengths aliased one stream")
	}
	if &a.Recs[0] == &d.Recs[0] {
		t.Fatal("different specs aliased one stream")
	}
	if a.Uops() < 20_000 || b.Uops() < 40_000 {
		t.Fatalf("stream lengths wrong: %d, %d", a.Uops(), b.Uops())
	}
	// A repeat request must hit, not regenerate.
	if _, err := c.stream(gcc.Spec, 20_000); err != nil {
		t.Fatal(err)
	}
	if n := c.generates.Load(); n != 3 {
		t.Fatalf("repeat request regenerated (%d generations)", n)
	}
	// A differing spec field — even just the seed — must miss.
	seeded := gcc.Spec
	seeded.Seed++
	if _, err := c.stream(seeded, 20_000); err != nil {
		t.Fatal(err)
	}
	if n := c.generates.Load(); n != 4 {
		t.Fatalf("seed change did not change the content key (%d generations)", n)
	}
}

// TestCorpusEviction checks the LRU bound: pushing past max evicts the
// coldest key, and re-requesting it regenerates.
func TestCorpusEviction(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	c := newCorpus(2, defaultBytes)
	for _, uops := range []uint64{10_000, 11_000, 12_000} {
		if _, err := c.stream(gcc.Spec, uops); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.streams.Len(); n != 2 {
		t.Fatalf("corpus holds %d entries, want max 2", n)
	}
	// 10k was the coldest; re-requesting it must regenerate.
	if _, err := c.stream(gcc.Spec, 10_000); err != nil {
		t.Fatal(err)
	}
	if n := c.generates.Load(); n != 4 {
		t.Fatalf("evicted key did not regenerate (%d generations)", n)
	}
	// 12k is still resident (11k was evicted by the 10k re-insert).
	if _, err := c.stream(gcc.Spec, 12_000); err != nil {
		t.Fatal(err)
	}
	if n := c.generates.Load(); n != 4 {
		t.Fatalf("resident key regenerated (%d generations)", n)
	}
}

// TestCorpusBytesBound drives a corpus with a small byte budget through
// random stream lengths, some of them longer than the whole budget. A
// stream that fits is kept, one that does not is served but not kept, and
// the streams resident after every step, found by probing every length
// asked for so far, never hold more record bytes than the budget.
func TestCorpusBytesBound(t *testing.T) {
	w, ok := workload.MicroByName("loopnest")
	if !ok {
		t.Fatal("loopnest workload missing")
	}
	const budget = 256 << 10
	rng := rand.New(rand.NewSource(1))
	c := newCorpus(defaultStreams, budget)
	var asked []uint64
	var oversize int
	for i := 0; i < 40; i++ {
		uops := uint64(1_000 + rng.Intn(40_000))
		asked = append(asked, uops)
		s, err := c.stream(w.Spec, uops)
		if err != nil {
			t.Fatal(err)
		}
		fits := heapBytes(s) <= budget
		if !fits {
			oversize++
		}
		before := c.generates.Load()
		if _, err := c.stream(w.Spec, uops); err != nil {
			t.Fatal(err)
		}
		if kept := c.generates.Load() == before; kept != fits {
			t.Fatalf("step %d: a stream of %d bytes was kept=%v under a %d-byte bound", i, heapBytes(s), kept, budget)
		}
		var resident int64
		for _, n := range asked {
			key, err := KeyFor(w.Spec, n)
			if err != nil {
				t.Fatal(err)
			}
			if s, ok := c.streams.Get(key); ok {
				resident += heapBytes(s)
			}
		}
		if resident > budget {
			t.Fatalf("step %d (%d uops): %d resident bytes, past the %d-byte bound", i, uops, resident, budget)
		}
	}
	if oversize == 0 || oversize == 40 {
		t.Fatalf("%d of 40 streams were longer than the budget; the lengths miss a case", oversize)
	}
}

// heapBytes is what a stream's record array takes on the heap, counted
// here rather than by the corpus's own weight function.
func heapBytes(s *trace.Stream) int64 { return int64(cap(s.Recs)) * 12 }

// mapCorpusStore is an in-memory lru.Backing for the persistence tests.
type mapCorpusStore struct {
	mu    sync.Mutex
	m     map[string][]byte
	saves int
	loads int
}

func newMapCorpusStore() *mapCorpusStore {
	return &mapCorpusStore{m: make(map[string][]byte)}
}

func (s *mapCorpusStore) Load(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	v, ok := s.m[key]
	return v, ok
}

func (s *mapCorpusStore) Save(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves++
	s.m[key] = append([]byte(nil), val...)
}

// TestCorpusStoreRoundTrip is the warm-start proof for generated streams:
// a corpus wired to a store saves what it generates, and a fresh corpus
// (a restarted process) reloads the identical records with zero
// generations.
func TestCorpusStoreRoundTrip(t *testing.T) {
	w, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("gcc workload missing")
	}
	const uops = 30_000
	st := newMapCorpusStore()

	c1 := newCorpus(8, defaultBytes)
	c1.setStore(st)
	s1, err := c1.stream(w.Spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	if n := c1.generates.Load(); n != 1 {
		t.Fatalf("cold corpus generated %d times, want 1", n)
	}
	if st.saves != 1 {
		t.Fatalf("store saw %d saves, want 1", st.saves)
	}

	c2 := newCorpus(8, defaultBytes)
	c2.setStore(st)
	s2, err := c2.stream(w.Spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	if n := c2.generates.Load(); n != 0 {
		t.Fatalf("warm corpus generated %d times, want 0 (store hit)", n)
	}
	if s2.Name != s1.Name || len(s2.Recs) != len(s1.Recs) {
		t.Fatalf("reloaded stream shape differs: %q/%d vs %q/%d",
			s2.Name, len(s2.Recs), s1.Name, len(s1.Recs))
	}
	for i := range s1.Recs {
		if s1.Recs[i] != s2.Recs[i] {
			t.Fatalf("rec %d differs after store round trip:\n%+v\nvs\n%+v", i, s1.Recs[i], s2.Recs[i])
		}
	}
}

// TestCorpusStoreCorruptEntryRegenerates: an unreadable persisted stream
// must fall back to generation and overwrite the bad copy, never error.
func TestCorpusStoreCorruptEntryRegenerates(t *testing.T) {
	w, _ := workload.ByName("gcc")
	const uops = 30_000
	st := newMapCorpusStore()

	seed := newCorpus(8, defaultBytes)
	seed.setStore(st)
	if _, err := seed.stream(w.Spec, uops); err != nil {
		t.Fatal(err)
	}
	// Corrupt every persisted entry's magic so trace.Read rejects it. (The
	// .xtr body is not checksummed at this layer — the store's CRC catches
	// body rot before the bytes ever reach the corpus.)
	st.mu.Lock()
	for k, v := range st.m {
		if len(v) > 0 {
			v[0] ^= 0xFF
		}
		st.m[k] = v
	}
	st.mu.Unlock()

	c := newCorpus(8, defaultBytes)
	c.setStore(st)
	s, err := c.stream(w.Spec, uops)
	if err != nil {
		t.Fatalf("corrupt store entry surfaced as an error: %v", err)
	}
	if len(s.Recs) == 0 {
		t.Fatal("regenerated stream is empty")
	}
	if n := c.generates.Load(); n != 1 {
		t.Fatalf("generated %d times, want 1 (regeneration after corrupt load)", n)
	}
	if st.saves < 2 {
		t.Fatalf("regeneration did not re-save a good copy (saves = %d)", st.saves)
	}
}

// TestCorpusClearStoreOnlyDetachesSelf: clearing with a store that is not
// the attached one must leave the attachment alone.
func TestCorpusClearStoreOnlyDetachesSelf(t *testing.T) {
	a, b := newMapCorpusStore(), newMapCorpusStore()
	c := newCorpus(2, defaultBytes)
	c.setStore(a)
	c.clearStore(b) // not attached; no-op
	c.mu.Lock()
	got := c.store
	c.mu.Unlock()
	if got != lru.Backing(a) {
		t.Fatal("clearStore with a foreign store detached the attached one")
	}
	c.clearStore(a)
	c.mu.Lock()
	got = c.store
	c.mu.Unlock()
	if got != nil {
		t.Fatal("clearStore with the attached store did not detach it")
	}
}
