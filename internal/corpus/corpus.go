// Package corpus is the process-wide trace corpus: generating a 1M-uop
// stream costs far more than replaying it through a frontend, and every
// figure of a run, and every job of a sweep, replays the same workloads
// at the same length. The corpus deduplicates that work
// content-addressed: entries are keyed by (hash of the workload spec, uop
// count), so two callers asking for the same dynamic stream share one
// generation — even when they race from parallel goroutines (the
// singleflight of internal/lru) — while any difference in the spec or
// the length yields a distinct entry, never an aliased stream.
//
// Sharing is safe because every caller receives the same immutable
// *trace.Stream: frontends and segmentation passes only read Recs.
package corpus

import (
	"bytes"
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"xbc/internal/keyhash"
	"xbc/internal/lru"
	"xbc/internal/program"
	"xbc/internal/trace"
)

// defaultStreams bounds the shared corpus. 64 entries hold the full
// 21-workload suite at three different stream lengths; at the default 1M
// uops each entry is roughly 17 MB, keeping the worst case near 1 GB.
const defaultStreams = 64

// shared is the process-wide corpus used by Stream; tests build private
// instances with newCorpus.
var shared = newCorpus(defaultStreams)

// Stream returns the process-wide corpus's stream for (spec, minUops):
// the simulation service and the experiment harness draw from one
// content-addressed pool, so a sweep of jobs that differ only in cache
// configuration generates each dynamic stream once.
func Stream(spec program.Spec, minUops uint64) (*trace.Stream, error) {
	return shared.stream(spec, minUops)
}

// SetStore attaches a persistent store to the process-wide corpus. The
// corpus consults it before generating (a hit skips generation entirely
// — sound because generation is deterministic and the .xtr encoding is
// lossless) and hands every fresh generation back for safekeeping.
// Persistence failures must not fail a simulation.
func SetStore(cs lru.Backing) { shared.setStore(cs) }

// ClearStore detaches cs if it is still the attached store; a store
// attached later by someone else is left in place.
func ClearStore(cs lru.Backing) { shared.clearStore(cs) }

// Key content-addresses one generated stream. It is also the stream
// identity of every memo derived from the stream, such as jobspec's
// sampling analyses.
type Key struct {
	spec string // content hash of the spec
	uops uint64 // requested minimum dynamic uop count
}

// KeyFor derives the content key for (spec, uops): the content hash of
// the spec, which covers every field, and the length.
func KeyFor(spec program.Spec, uops uint64) (Key, error) {
	sum, err := keyhash.Content(spec)
	return Key{spec: sum, uops: uops}, err
}

// String renders the key as hex(spec hash):uops, the form the store
// persists it under.
func (k Key) String() string { return storeKeyFor(k) }

// corpus is a bounded, content-addressed stream cache.
type corpus struct {
	streams *lru.Cache[Key, *trace.Stream]

	mu    sync.Mutex
	store lru.Backing // optional persistence behind the memory cache

	generates atomic.Uint64 // trace.Generate invocations (test observability)
}

func newCorpus(max int) *corpus {
	return &corpus{streams: lru.New[Key, *trace.Stream](max)}
}

// stream returns the cached Stream for (spec, minUops), loading or
// generating it at most once per key no matter how many callers race.
// Every caller shares the one Stream, which must be treated as immutable.
func (c *corpus) stream(spec program.Spec, minUops uint64) (*trace.Stream, error) {
	key, err := KeyFor(spec, minUops)
	if err != nil {
		return nil, err
	}
	s, _, err := c.streams.Do(context.TODO(), key, func() (*trace.Stream, error) {
		return c.load(key, spec, minUops)
	})
	return s, err
}

// load reads the stream for key from the attached store, or generates it
// and saves it there (write-behind).
func (c *corpus) load(key Key, spec program.Spec, minUops uint64) (*trace.Stream, error) {
	c.mu.Lock()
	cs := c.store
	c.mu.Unlock()
	if cs != nil {
		if data, ok := cs.Load(storeKeyFor(key)); ok {
			if s, err := trace.Read(bytes.NewReader(data)); err == nil {
				return s, nil
			}
			// An unreadable persisted stream is not an error: fall
			// through to regeneration (which re-saves a good copy).
		}
	}
	c.generates.Add(1)
	s, err := trace.Generate(spec, minUops)
	if err != nil {
		return nil, err
	}
	if cs != nil {
		var buf bytes.Buffer
		if err := trace.Write(&buf, s); err == nil {
			cs.Save(storeKeyFor(key), buf.Bytes())
		}
	}
	return s, nil
}

// storeKeyFor renders a corpus key as the persistent store's string key,
// hex(spec hash):uops. Stores written by earlier builds use the same
// format, so their streams keep serving hits.
func storeKeyFor(key Key) string {
	return key.spec + ":" + strconv.FormatUint(key.uops, 10)
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
