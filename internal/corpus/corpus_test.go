package corpus

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"xbc/internal/lru"
	"xbc/internal/program"
	"xbc/internal/store"
	"xbc/internal/trace"
	"xbc/internal/workload"
)

// specKey is the corpus's entry key for spec.
func specKey(t testing.TB, spec program.Spec) string {
	t.Helper()
	k, err := KeyFor(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return k.spec
}

// sameStream fails unless got is want record for record, with no spare
// capacity a caller could append into.
func sameStream(t testing.TB, what string, got, want *trace.Stream) {
	t.Helper()
	if got.Name != want.Name || !reflect.DeepEqual(got.Recs, want.Recs) {
		t.Fatalf("%s: %q with %d records, want %q with %d records", what, got.Name, len(got.Recs), want.Name, len(want.Recs))
	}
	if cap(got.Recs) != len(got.Recs) {
		t.Fatalf("%s: cap %d != len %d", what, cap(got.Recs), len(got.Recs))
	}
}

// TestCorpusSingleflight races many goroutines — like parallel runner
// cells — at one (spec, uops) and checks that exactly one generation
// happens and every caller gets a view of the one kept backing array. Run
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
		if len(s.Recs) != len(streams[0].Recs) || &s.Recs[0] != &streams[0].Recs[0] {
			t.Fatalf("caller %d does not share the kept records", i)
		}
	}
}

// TestCorpusDistinctKeysNeverAlias checks the content addressing:
// different specs never hand out each other's records, a longer length
// of one spec generates once more, and a shorter one is a view of the
// longest stream kept.
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
		t.Fatalf("generated %d times for two specs and a longer length, want 3", n)
	}
	if &a.Recs[0] == &d.Recs[0] || &b.Recs[0] == &d.Recs[0] {
		t.Fatal("different specs aliased one stream")
	}
	if a.Uops() < 20_000 || b.Uops() < 40_000 {
		t.Fatalf("stream lengths wrong: %d, %d", a.Uops(), b.Uops())
	}
	// A repeat of the shorter length is a view of the longer stream.
	again, err := c.stream(gcc.Spec, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.generates.Load(); n != 3 {
		t.Fatalf("shorter length regenerated (%d generations)", n)
	}
	if &again.Recs[0] != &b.Recs[0] {
		t.Fatal("shorter length is not a view of the longest stream kept")
	}
	sameStream(t, "gcc at 20k after 40k", again, a)
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

// TestCorpusEviction checks the LRU bound, which counts programs: pushing
// past max evicts the coldest program, and re-requesting it regenerates,
// while any length of a resident program does not.
func TestCorpusEviction(t *testing.T) {
	var specs []program.Spec
	for _, name := range []string{"gcc", "doom", "li"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s workload missing", name)
		}
		specs = append(specs, w.Spec)
	}
	c := newCorpus(2, defaultBytes)
	for _, s := range specs {
		if _, err := c.stream(s, 10_000); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.entries.Len(); n != 2 {
		t.Fatalf("corpus holds %d entries, want max 2", n)
	}
	// gcc was the coldest; re-requesting it must regenerate.
	if _, err := c.stream(specs[0], 10_000); err != nil {
		t.Fatal(err)
	}
	if n := c.generates.Load(); n != 4 {
		t.Fatalf("evicted program did not regenerate (%d generations)", n)
	}
	// li is still resident (doom was evicted by the gcc re-insert), at
	// this length and every shorter one.
	for _, uops := range []uint64{10_000, 5_000} {
		if _, err := c.stream(specs[2], uops); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.generates.Load(); n != 4 {
		t.Fatalf("resident program regenerated (%d generations)", n)
	}
}

// TestCorpusBytesBound drives a corpus with a small byte budget through
// random lengths of one program, some of them longer than the whole
// budget allows. A request the kept stream covers is a view and generates
// nothing. A longer one generates; its stream is kept if it fits, and
// otherwise served without displacing the shorter stream already kept.
// The kept records never weigh more than the budget.
func TestCorpusBytesBound(t *testing.T) {
	w, ok := workload.MicroByName("loopnest")
	if !ok {
		t.Fatal("loopnest workload missing")
	}
	const budget = 256 << 10
	rng := rand.New(rand.NewSource(1))
	c := newCorpus(defaultStreams, budget)
	key := specKey(t, w.Spec)
	var kept uint64 // uops of the stream the model says is kept; 0: none
	var oversize, displaced int
	for i := 0; i < 40; i++ {
		uops := uint64(1_000 + rng.Intn(40_000))
		before := c.generates.Load()
		s, err := c.stream(w.Spec, uops)
		if err != nil {
			t.Fatal(err)
		}
		generated := c.generates.Load() != before
		if covered := kept >= uops; generated == covered {
			t.Fatalf("step %d: %d uops with %d kept: generated=%v", i, uops, kept, generated)
		}
		if generated {
			// The view served has no spare capacity; the stream the
			// corpus weighs is the one trace.Generate makes.
			ref, err := trace.Generate(w.Spec, uops)
			if err != nil {
				t.Fatal(err)
			}
			sameStream(t, "served", s, &trace.Stream{Name: ref.Name, Recs: ref.Recs[:len(ref.Recs):len(ref.Recs)]})
			switch {
			case heapBytes(ref) <= budget:
				kept = ref.Uops()
			case kept > 0:
				displaced++
				fallthrough
			default:
				oversize++
			}
		}
		e, ok := c.entries.Get(key)
		if ok != (kept > 0) || ok && (e.uops != kept || heapBytes(&trace.Stream{Recs: e.recs}) > budget) {
			t.Fatalf("step %d (%d uops): entry present=%v, want a %d-uop stream within %d bytes", i, uops, ok, kept, budget)
		}
	}
	if oversize == 0 || displaced == 0 || oversize == 40 {
		t.Fatalf("%d of 40 streams were longer than the budget, %d of them with a shorter one kept; the lengths miss a case", oversize, displaced)
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

// stored decodes the stream persisted under key.
func (s *mapCorpusStore) stored(t testing.TB, key string) *trace.Stream {
	t.Helper()
	s.mu.Lock()
	data, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("nothing persisted under %s", key)
	}
	st, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return st
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
	sameStream(t, "reloaded stream", s2, s1)
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

// TestCorpusStoreTooShortRegenerates: a persisted stream shorter than a
// request is regenerated at the requested length and saved over, and the
// next process serves both lengths from the longer copy.
func TestCorpusStoreTooShortRegenerates(t *testing.T) {
	w, _ := workload.ByName("li")
	key := specKey(t, w.Spec)
	st := newMapCorpusStore()
	first := newCorpus(8, defaultBytes)
	first.setStore(st)
	if _, err := first.stream(w.Spec, 10_000); err != nil {
		t.Fatal(err)
	}

	c := newCorpus(8, defaultBytes)
	c.setStore(st)
	long, err := c.stream(w.Spec, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.generates.Load(); n != 1 {
		t.Fatalf("generated %d times over a too short stored stream, want 1", n)
	}
	sameStream(t, "persisted after the longer request", st.stored(t, key), long)

	again := newCorpus(8, defaultBytes)
	again.setStore(st)
	for _, uops := range []uint64{10_000, 25_000} {
		if _, err := again.stream(w.Spec, uops); err != nil {
			t.Fatal(err)
		}
	}
	if n := again.generates.Load(); n != 0 {
		t.Fatalf("restarted corpus generated %d times, want 0", n)
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

// storeBacking persists the corpus in a real store.Store.
type storeBacking struct {
	t  testing.TB
	st *store.Store
}

func (b storeBacking) Load(key string) ([]byte, bool) { return b.st.Get(key) }

func (b storeBacking) Save(key string, val []byte) {
	if err := b.st.Put(key, val); err != nil {
		b.t.Error(err)
	}
}

func openStore(t *testing.T, dir string) storeBacking {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return storeBacking{t: t, st: st}
}

// TestPrefixViews is the prefix-view property: for random workload and
// micro specs and lengths n < m, asked for short then long and long then
// short, of a live corpus and of one re-attached to the reopened store,
// the stream served for each length is trace.Generate's record for
// record, with no spare capacity.
func TestPrefixViews(t *testing.T) {
	var specs []program.Spec
	for _, name := range []string{"gcc", "doom", "word", "li"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s workload missing", name)
		}
		specs = append(specs, w.Spec)
	}
	for _, w := range workload.Micro() {
		specs = append(specs, w.Spec)
	}
	rng := rand.New(rand.NewSource(30))
	draws := 8
	if testing.Short() {
		draws = 3
	}
	for i := 0; i < draws; i++ {
		spec := specs[rng.Intn(len(specs))]
		n := uint64(rng.Intn(25_000))
		m := n + 1 + uint64(rng.Intn(25_000))
		want := map[uint64]*trace.Stream{}
		for _, uops := range []uint64{n, m} {
			s, err := trace.Generate(spec, uops)
			if err != nil {
				t.Fatal(err)
			}
			want[uops] = s
		}
		for _, order := range [][2]uint64{{n, m}, {m, n}} {
			dir := t.TempDir()
			ask := func(c *corpus, life string) {
				for _, uops := range order {
					got, err := c.stream(spec, uops)
					if err != nil {
						t.Fatal(err)
					}
					sameStream(t, spec.Name+" "+life, got, want[uops])
				}
			}
			st := openStore(t, dir)
			live := newCorpus(8, defaultBytes)
			live.setStore(st)
			ask(live, "live")
			if err := st.st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openStore(t, dir)
			back := newCorpus(8, defaultBytes)
			back.setStore(st)
			ask(back, "reopened")
			if g := back.generates.Load(); g != 0 {
				t.Fatalf("%s %v: the reopened store's corpus generated %d times", spec.Name, order, g)
			}
			if err := st.st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPrefixViewEdges cuts views at the edges of the uop index, where
// the binary search and the scan meet, and at both ends of the stream.
func TestPrefixViewEdges(t *testing.T) {
	w, _ := workload.MicroByName("callheavy")
	c := newCorpus(8, defaultBytes)
	if _, err := c.stream(w.Spec, 5_000); err != nil {
		t.Fatal(err)
	}
	e, _ := c.entries.Get(specKey(t, w.Spec))
	if len(e.marks) < 3 {
		t.Fatalf("%d marks; the stream is too short to reach the edges", len(e.marks))
	}
	for _, n := range []uint64{0, 1, e.marks[1] - 1, e.marks[1], e.marks[1] + 1, e.marks[2], e.uops - 1, e.uops} {
		want, err := trace.Generate(w.Spec, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.stream(w.Spec, n)
		if err != nil {
			t.Fatal(err)
		}
		sameStream(t, "view", got, want)
	}
	if n := c.generates.Load(); n != 1 {
		t.Fatalf("%d generations, want 1", n)
	}
}

// gatedStore holds the first Save after hold until release closes, which
// keeps the generation that saves open while other callers arrive.
type gatedStore struct {
	*mapCorpusStore
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func (s *gatedStore) hold() (entered, release chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entered, s.release = make(chan struct{}), make(chan struct{})
	return s.entered, s.release
}

func (s *gatedStore) Save(key string, val []byte) {
	s.mu.Lock()
	entered, release := s.entered, s.release
	s.entered = nil
	s.mu.Unlock()
	if entered != nil {
		close(entered)
		<-release
	}
	s.mapCorpusStore.Save(key, val)
}

// TestCorpusMixedLengths has goroutines ask one spec for mixed lengths at
// once. In each round a first caller asks a length longer than any before
// and its generation is held open until every other caller of the round
// has arrived, in a known order; then all race. Every caller must get its
// exact prefix; the stream kept in memory and the one persisted must be
// the longest asked for; and the corpus may generate no more often than
// the number of lengths longer than every one asked before them.
func TestCorpusMixedLengths(t *testing.T) {
	w, _ := workload.MicroByName("switchheavy")
	key := specKey(t, w.Spec)
	st := &gatedStore{mapCorpusStore: newMapCorpusStore()}
	c := newCorpus(8, defaultBytes)
	c.setStore(st)
	rng := rand.New(rand.NewSource(5))
	ref := map[uint64]*trace.Stream{}
	var longest uint64
	records := 0
	for round := 0; round < 4; round++ {
		lengths := []uint64{longest + 1_000 + uint64(rng.Intn(4_000))}
		for i := 0; i < 9; i++ {
			lengths = append(lengths, 500+uint64(rng.Intn(int(lengths[0]+6_000))))
		}
		for _, n := range lengths {
			if n > longest {
				longest = n
				records++
			}
			if ref[n] == nil {
				s, err := trace.Generate(w.Spec, n)
				if err != nil {
					t.Fatal(err)
				}
				ref[n] = s
			}
		}

		entered, release := st.hold()
		var wg sync.WaitGroup
		var returned atomic.Uint64
		waits := c.waits.Load()
		got := make([]*trace.Stream, len(lengths))
		for i, n := range lengths {
			wg.Add(1)
			go func(i int, n uint64) {
				defer wg.Done()
				defer returned.Add(1)
				s, err := c.stream(w.Spec, n)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = s
			}(i, n)
			if i == 0 {
				<-entered
				continue
			}
			// Caller i has arrived once it waits on the held generation
			// or has been served by the stream kept before this round.
			for c.waits.Load()-waits+returned.Load() < uint64(i) {
				runtime.Gosched()
			}
		}
		close(release)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, n := range lengths {
			sameStream(t, "mixed lengths", got[i], ref[n])
		}
	}
	if g := c.generates.Load(); g > uint64(records) {
		t.Fatalf("%d generations, more than the %d lengths longer than all before them", g, records)
	}
	e, ok := c.entries.Get(key)
	if !ok {
		t.Fatal("nothing kept")
	}
	kept := &trace.Stream{Name: e.name, Recs: e.recs}
	if !reflect.DeepEqual(kept.Recs, ref[longest].Recs) {
		t.Fatalf("kept %d records, want the %d of the longest length asked", len(kept.Recs), len(ref[longest].Recs))
	}
	if s := st.stored(t, key); !reflect.DeepEqual(s.Recs, ref[longest].Recs) {
		t.Fatalf("persisted %d records, want the %d of the longest length asked", len(s.Recs), len(ref[longest].Recs))
	}
}

// BenchmarkCorpusView cuts a 200k-uop view of a 300k-uop stream.
func BenchmarkCorpusView(b *testing.B) {
	e := viewBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewSink = e.view(200_000)
	}
}

// TestCorpusViewAllocs pins BenchmarkCorpusView at one allocation, the
// Stream header: the cut itself allocates nothing.
func TestCorpusViewAllocs(t *testing.T) {
	e := viewBench(t)
	if got := testing.AllocsPerRun(10, func() { viewSink = e.view(200_000) }); got != 1 {
		t.Fatalf("a view allocates %v times, want 1", got)
	}
}

var viewSink *trace.Stream

func viewBench(tb testing.TB) *entry {
	w, _ := workload.ByName("gcc")
	s, err := trace.Generate(w.Spec, 300_000)
	if err != nil {
		tb.Fatal(err)
	}
	return newEntry(s)
}
