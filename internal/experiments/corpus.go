package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"xbc/internal/lru"
	"xbc/internal/program"
	"xbc/internal/trace"
)

// The trace corpus cache: generating a 1M-uop stream costs far more than
// replaying it through a frontend, and every figure of a run replays the
// same 21 workloads at the same length. The corpus deduplicates that work
// content-addressed: entries are keyed by (hash of the workload spec, uop
// count), so two cells asking for the same dynamic stream share one
// generation — even when they race from parallel runner goroutines
// (the singleflight of internal/lru) — while any difference in the
// spec or the length yields a distinct entry, never an aliased stream.
//
// Sharing is safe because every caller receives the same immutable
// *trace.Stream: frontends and segmentation passes only read Recs.

// defaultCorpusStreams bounds the shared corpus. 64 entries hold the full
// 21-workload suite at three different stream lengths; at the default 1M
// uops each entry is roughly 17 MB, keeping the worst case near 1 GB.
const defaultCorpusStreams = 64

// sharedCorpus is the process-wide corpus used by stream(); tests build
// private instances with newCorpus.
var sharedCorpus = newCorpus(defaultCorpusStreams)

// StreamFor returns the process-wide shared corpus's Stream for
// (spec, minUops): the simulation service and the experiment
// harness draw from one content-addressed pool, so a sweep of jobs that
// differ only in cache configuration generates each dynamic stream once.
func StreamFor(spec program.Spec, minUops uint64) (*trace.Stream, error) {
	return sharedCorpus.stream(spec, minUops)
}

// SetCorpusStore attaches a persistent store to the process-wide corpus.
// The corpus consults it before generating (a hit skips generation
// entirely — sound because generation is deterministic and the .xtr
// encoding is lossless) and hands every fresh generation back for
// safekeeping. Persistence failures must not fail a simulation.
func SetCorpusStore(cs lru.Backing) { sharedCorpus.setStore(cs) }

// ClearCorpusStore detaches cs if it is still the attached store; a store
// attached later by someone else is left in place.
func ClearCorpusStore(cs lru.Backing) { sharedCorpus.clearStore(cs) }

// CorpusKey content-addresses one generated stream. It is also the stream
// identity of every memo derived from the stream, such as jobspec's
// sampling analyses.
type CorpusKey struct {
	spec [sha256.Size]byte // hash of the canonical spec encoding
	uops uint64            // requested minimum dynamic uop count
}

// CorpusKeyFor derives the content key for (spec, uops). Specs are flat
// value structs, so their deterministic JSON encoding is a sound canonical
// form: equal specs hash equal, any differing field hashes different.
func CorpusKeyFor(spec program.Spec, uops uint64) (CorpusKey, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return CorpusKey{}, fmt.Errorf("experiments: canonicalizing workload spec %q: %w", spec.Name, err)
	}
	return CorpusKey{spec: sha256.Sum256(b), uops: uops}, nil
}

// corpus is a bounded, content-addressed stream cache.
type corpus struct {
	streams *lru.Cache[CorpusKey, *trace.Stream]

	mu    sync.Mutex
	store lru.Backing // optional persistence behind the memory cache

	generates atomic.Uint64 // trace.Generate invocations (test observability)
}

func newCorpus(max int) *corpus {
	return &corpus{streams: lru.New[CorpusKey, *trace.Stream](max)}
}

// stream returns the cached Stream for (spec, minUops), loading or
// generating it at most once per key no matter how many callers race.
// Every caller shares the one Stream, which must be treated as immutable.
func (c *corpus) stream(spec program.Spec, minUops uint64) (*trace.Stream, error) {
	key, err := CorpusKeyFor(spec, minUops)
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
func (c *corpus) load(key CorpusKey, spec program.Spec, minUops uint64) (*trace.Stream, error) {
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

// storeKeyFor renders a corpus key as the persistent store's string key.
func storeKeyFor(key CorpusKey) string {
	return hex.EncodeToString(key.spec[:]) + ":" + strconv.FormatUint(key.uops, 10)
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
