// Package corpus is the process-wide trace corpus: generating a 1M-uop
// stream costs far more than replaying it through a frontend, and every
// figure of a run, and every job of a sweep, replays the same workloads.
//
// A workload's streams at different lengths are prefixes of one
// deterministic walk: trace.Generate(spec, n) stops at the first record
// where the running uop count reaches n, and the walk does not depend on
// n. So the corpus keys its entries by the content hash of the program
// spec alone and keeps, for each spec, the longest stream generated. A
// request for n uops that the entry covers gets a view of the entry's
// first records, cut exactly where trace.Generate(spec, n) would stop; a
// longer request generates the longer stream from scratch and replaces
// the entry. Any difference in the spec yields a distinct entry, never
// an aliased stream.
//
// Sharing is safe because every view is a read-only window on the
// entry's records with cap == len: frontends and segmentation passes only
// read Recs, and an append to a view copies.
package corpus

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"xbc/internal/keyhash"
	"xbc/internal/lru"
	"xbc/internal/program"
	"xbc/internal/trace"
)

// The shared corpus is bounded twice: in programs and in bytes. 64
// entries hold the full 21-workload suite three times over, one stream
// per program whatever lengths were asked. A stream runs 0.63 to 0.83
// records of 12 bytes per uop, so a 1M-uop entry takes 8 to 11 MB. The
// 1 GiB byte bound is the worst case that 64 such entries used to reach
// at 24 bytes a record; it keeps a handful of very long streams (xbcd
// admits jobs up to -maxuops) from holding tens of gigabytes, and typical
// runs stay far below it. A stream heavier than the whole bound is served
// but not kept, and leaves the shorter stream of its program in place.
const (
	defaultStreams = 64
	defaultBytes   = 1 << 30
)

// markEvery is how many records lie between two entries of a stream's
// uop index, so cutting a view scans at most this many records.
const markEvery = 1024

// shared is the process-wide corpus used by Stream; tests build private
// instances with newCorpus.
var shared = newCorpus(defaultStreams, defaultBytes)

// Stream returns the process-wide corpus's stream for (spec, minUops),
// record for record what trace.Generate(spec, minUops) returns: the
// simulation service and the experiment harness draw from one pool, so a
// sweep of jobs that differ in cache configuration or length generates
// each program's stream once.
func Stream(spec program.Spec, minUops uint64) (*trace.Stream, error) {
	return shared.stream(spec, minUops)
}

// Generations returns how many streams the process-wide corpus has
// generated, rather than served from memory or loaded from the store.
func Generations() uint64 { return shared.generates.Load() }

// SetStore attaches a persistent store to the process-wide corpus. The
// corpus consults it before generating (a long enough stored stream skips
// generation entirely — sound because generation is deterministic and
// the .xtr encoding is lossless) and hands every fresh generation back
// for safekeeping, one stream per program under hex(spec hash).
// Persistence failures must not fail a simulation.
func SetStore(cs lru.Backing) { shared.setStore(cs) }

// ClearStore detaches cs if it is still the attached store; a store
// attached later by someone else is left in place.
func ClearStore(cs lru.Backing) { shared.clearStore(cs) }

// Key names one generated stream: a program and a length. The corpus
// keeps one entry per program, but the (program, length) pair is the
// stream identity of every memo derived from a stream, such as jobspec's
// sampling analyses, and of the figures' x: keys.
type Key struct {
	spec string // content hash of the spec
	uops uint64 // requested minimum dynamic uop count
}

// KeyFor derives the key for (spec, uops): the content hash of the spec,
// which covers every field, and the length.
func KeyFor(spec program.Spec, uops uint64) (Key, error) {
	sum, err := keyhash.Content(spec)
	return Key{spec: sum, uops: uops}, err
}

// String renders the key as hex(spec hash):uops.
func (k Key) String() string {
	return k.spec + ":" + strconv.FormatUint(k.uops, 10)
}

// errPanicked is what waiters receive when the generation they waited on
// panicked; the panic itself continues in the generating goroutine.
var errPanicked = errors.New("corpus: the generation of this stream panicked")

// corpus is a bounded cache of one stream per program.
type corpus struct {
	entries *lru.Cache[string, *entry] // by hex(spec hash)
	budget  int64                      // the byte bound entries is built with

	mu      sync.Mutex
	store   lru.Backing        // optional persistence behind the memory cache
	flights map[string]*flight // the one generation running per spec
	wants   map[string]uint64  // the longest length asked for that a running generation does not cover

	generates atomic.Uint64 // trace.Generate invocations
	waits     atomic.Uint64 // callers that waited on a running generation (test observability)
}

// entry is the longest stream kept for one program.
type entry struct {
	name string
	recs []trace.Rec
	uops uint64 // the uops of all of recs
	// marks[j] is the uop count of recs[:j*markEvery]: the index that
	// finds where a view ends.
	marks []uint64
	store lru.Backing // the store this stream was loaded from or saved to

	// last is the view cut most recently, of lastUops, handed out again
	// to the next caller of that length: a sweep asks one length of a
	// program many times. Guarded by corpus.mu.
	last     *trace.Stream
	lastUops uint64
}

// flight is one running generation, which other callers of its spec
// wait on. e and err are written before done is closed.
type flight struct {
	done chan struct{}
	uops uint64 // the length being generated
	e    *entry
	err  error
}

// newCorpus returns a corpus holding at most maxStreams streams whose
// records take at most maxBytes together.
func newCorpus(maxStreams int, maxBytes int64) *corpus {
	return &corpus{
		entries: lru.NewWeighted[string, *entry](maxStreams, maxBytes, entryBytes),
		budget:  maxBytes,
		flights: make(map[string]*flight),
		wants:   make(map[string]uint64),
	}
}

// entryBytes is what an entry's records hold on the heap: the capacity
// of the slice, which counts the slack its growth left as well.
func entryBytes(e *entry) int64 {
	return int64(cap(e.recs)) * int64(unsafe.Sizeof(trace.Rec{}))
}

func newEntry(s *trace.Stream) *entry {
	e := &entry{name: s.Name, recs: s.Recs, marks: make([]uint64, 0, len(s.Recs)/markEvery+1)}
	for i, r := range s.Recs {
		if i%markEvery == 0 {
			e.marks = append(e.marks, e.uops)
		}
		e.uops += uint64(r.NumUops)
	}
	return e
}

// view returns the stream trace.Generate makes for n uops, which must be
// at most e.uops: the records up to the first one at which the running
// uop count reaches n.
func (e *entry) view(n uint64) *trace.Stream {
	k := 0
	if n > 0 {
		// The last mark below n starts a run of at most markEvery records
		// that ends where the count reaches n.
		j, _ := slices.BinarySearch(e.marks, n)
		k = (j - 1) * markEvery
		for uops := e.marks[j-1]; uops < n; k++ {
			uops += uint64(e.recs[k].NumUops)
		}
	}
	return &trace.Stream{Name: e.name, Recs: e.recs[:k:k]}
}

// stream returns the stream for (spec, minUops), loading or generating
// it at most once per spec at a time no matter how many callers race. A
// caller whose length the running generation does not cover waits for
// it and then generates the longest length asked for meanwhile.
func (c *corpus) stream(spec program.Spec, minUops uint64) (*trace.Stream, error) {
	key, err := keyhash.Content(spec)
	if err != nil {
		return nil, err
	}
	var held *entry
	c.mu.Lock()
	for {
		e, ok := c.entries.Get(key)
		if ok && e.uops >= minUops {
			if e.last == nil || e.lastUops != minUops {
				e.last, e.lastUops = e.view(minUops), minUops
			}
			s := e.last
			c.mu.Unlock()
			return s, nil
		}
		held = e
		f, ok := c.flights[key]
		if !ok {
			break
		}
		if minUops > f.uops {
			c.wants[key] = max(c.wants[key], minUops)
		}
		c.waits.Add(1)
		c.mu.Unlock()
		//xbc:ignore ctxflow the generating call closes done however it returns
		<-f.done
		switch {
		case f.err == nil && f.e.uops >= minUops:
			// Served from the flight itself, so a stream too heavy to
			// keep still serves every caller that waited on it.
			return f.e.view(minUops), nil
		case f.err != nil && f.uops >= minUops:
			return nil, f.err
		}
		c.mu.Lock()
	}
	f := &flight{done: make(chan struct{}), uops: max(minUops, c.wants[key]), err: errPanicked}
	delete(c.wants, key)
	c.flights[key] = f
	cs := c.store
	c.mu.Unlock()
	// When the memory holds a stream of the spec from this store, the
	// store holds that stream, or a save of it was dropped: either way
	// nothing longer, so it is not read.
	probe := held == nil || held.store != cs

	// The flight must come down and done must close however the
	// generation returns: a panic that skipped this would strand every
	// waiter on the spec.
	defer func() {
		c.mu.Lock()
		if f.err == nil {
			c.keep(key, f.e)
			if c.wants[key] <= f.e.uops {
				delete(c.wants, key)
			}
		}
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	f.e, f.err = c.load(key, cs, probe, spec, f.uops)
	if f.err != nil {
		return nil, f.err
	}
	return f.e.view(minUops), nil
}

// load reads a stream of at least minUops for spec from cs when probe is
// set, or generates it and saves it there (write-behind). The key is
// hex(spec hash); a stream persisted under an earlier build's
// hex(spec hash):uops key is never looked up.
func (c *corpus) load(key string, cs lru.Backing, probe bool, spec program.Spec, minUops uint64) (*entry, error) {
	if cs != nil && probe {
		if data, ok := cs.Load(key); ok {
			if s, err := trace.Read(bytes.NewReader(data)); err == nil {
				if e := newEntry(s); e.uops >= minUops {
					e.store = cs
					return e, nil
				}
			}
			// An unreadable or too short persisted stream is not an
			// error: fall through to regeneration, which saves a good
			// copy over it.
		}
	}
	c.generates.Add(1)
	s, err := trace.Generate(spec, minUops)
	if err != nil {
		return nil, err
	}
	e := newEntry(s)
	if cs != nil {
		var buf bytes.Buffer
		if err := trace.Write(&buf, s); err == nil {
			cs.Save(key, buf.Bytes())
			e.store = cs
		}
	}
	return e, nil
}

// keep makes e the entry of key unless that would replace a longer
// stream, or e alone weighs more than the byte bound: the cache would
// then drop the entry it has instead of keeping either. Called with mu
// held.
func (c *corpus) keep(key string, e *entry) {
	if entryBytes(e) > c.budget {
		return
	}
	if old, ok := c.entries.Get(key); ok && old.uops >= e.uops {
		return
	}
	c.entries.Put(key, e)
}

func (c *corpus) setStore(cs lru.Backing) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = cs
}

func (c *corpus) clearStore(cs lru.Backing) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == cs {
		c.store = nil
	}
}
