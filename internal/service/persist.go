package service

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"xbc/internal/service/jobspec"
	"xbc/internal/store"
)

// The persistence layer: a read-through / write-behind adapter between
// the in-memory caches (the LRU result cache and the trace-corpus cache)
// and the crash-safe store. Completed results and generated corpus
// streams flow to disk from a single flusher goroutine, so simulation
// workers never block on store I/O; reads go through synchronously on a
// cache miss, which is how a restarted daemon warm-starts: a spec served
// yesterday is answered from disk today without re-simulation, bit
// identical by the determinism contract.
//
// Key namespaces inside the one store:
//
//	r:<job content key>      persisted job result (jobspec.EncodeResult)
//	c:<hex(program hash)>    longest generated trace stream of a program (.xtr bytes)
//	s:<snapshot key>         warm-state snapshot (sealed snapshot blob)
//	x:<figure cell key>      figure cell no spec describes (cmd/experiments)

const (
	corpusKeyPrefix   = "c:"
	snapshotKeyPrefix = "s:"
)

// persistItem is one pending write-behind entry.
type persistItem struct {
	key string
	val []byte
}

// persister owns the store on behalf of a Server.
type persister struct {
	st *store.Store

	ch        chan persistItem
	stop      chan struct{} // closed by close(); producers and the flusher select on it
	done      chan struct{}
	closeOnce sync.Once

	mu           sync.Mutex
	writes       uint64 // store puts that succeeded
	writeErrors  uint64 // store puts that failed, or were enqueued after close
	resultHits   uint64 // submissions answered from the store
	resultMisses uint64 // store lookups that found nothing
	corpusHits   uint64 // corpus streams loaded instead of generated
	decodeErrors uint64 // stored records that failed to decode
}

// persistQueueDepth bounds the write-behind backlog. Sends block when the
// flusher falls this far behind — a simulation takes orders of magnitude
// longer than a store append, so in practice the queue never fills.
const persistQueueDepth = 1024

func newPersister(st *store.Store) *persister {
	p := &persister{
		st:   st,
		ch:   make(chan persistItem, persistQueueDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.loop()
	return p
}

// loop is the write-behind flusher: the only goroutine that writes the
// store after open. On stop it drains whatever producers managed to
// enqueue, then exits; the queue channel itself is never closed, so a
// producer racing the drain can never panic on a closed channel.
func (p *persister) loop() {
	defer close(p.done)
	for {
		select {
		case it := <-p.ch:
			p.flush(it)
		case <-p.stop:
			for {
				select {
				case it := <-p.ch:
					p.flush(it)
				default:
					return
				}
			}
		}
	}
}

// flush writes one item. A failed write is counted and dropped: every
// record is regenerable from its spec.
func (p *persister) flush(it persistItem) {
	err := p.st.Put(it.key, it.val)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err == nil {
		p.writes++
		return
	}
	p.writeErrors++
}

// close stops the flusher after draining everything enqueued. Safe to
// call more than once, and safe against producers still racing the
// drain: a late enqueue falls into the stop case and is counted as a
// write error instead of panicking on a closed channel.
func (p *persister) close() {
	p.closeOnce.Do(func() { close(p.stop) })
	//xbc:ignore ctxflow loop closes done unconditionally on return and stop was just closed, so this receive is bounded
	<-p.done
}

// enqueue hands one item to the flusher. Once the persister has been
// stopped, the item is counted as a write error: a drain racing a final
// completion leaves a result that a resubmission recomputes.
func (p *persister) enqueue(it persistItem) {
	select {
	case p.ch <- it:
	case <-p.stop:
		p.mu.Lock()
		defer p.mu.Unlock()
		p.writeErrors++
	}
}

// saveResult enqueues a completed job's result for write-behind.
func (p *persister) saveResult(id string, res jobspec.Result) {
	val, err := jobspec.EncodeResult(res)
	if err != nil {
		// Result is a plain value struct; this cannot fail. Count it
		// rather than crash a worker if that ever changes.
		p.mu.Lock()
		p.writeErrors++
		p.mu.Unlock()
		return
	}
	p.enqueue(persistItem{key: jobspec.ResultStoreKey(id), val: val})
}

// loadResult is the read-through path: a persisted result for the content
// key, decoded, or false. A record that fails to decode is counted and
// treated as a miss (the job simply re-runs).
func (p *persister) loadResult(id string) (jobspec.Result, bool) {
	val, ok := p.st.Get(jobspec.ResultStoreKey(id))
	if !ok {
		p.mu.Lock()
		p.resultMisses++
		p.mu.Unlock()
		return jobspec.Result{}, false
	}
	res, err := jobspec.DecodeResult(val)
	if err != nil {
		p.mu.Lock()
		p.decodeErrors++
		p.mu.Unlock()
		return jobspec.Result{}, false
	}
	p.mu.Lock()
	p.resultHits++
	p.mu.Unlock()
	return res, true
}

// Load implements lru.Backing for the trace corpus: a persisted trace
// stream's serialized bytes, read through synchronously on a corpus miss.
func (p *persister) Load(key string) ([]byte, bool) {
	val, ok := p.st.Get(corpusKeyPrefix + key)
	if !ok {
		return nil, false
	}
	p.mu.Lock()
	p.corpusHits++
	p.mu.Unlock()
	return val, true
}

// Save implements lru.Backing for the trace corpus: a freshly generated
// stream, written behind.
func (p *persister) Save(key string, val []byte) {
	p.enqueue(persistItem{key: corpusKeyPrefix + key, val: val})
}

// snapshotBacking adapts the persister to lru.Backing under the
// "s:" namespace: warm-state blobs read through synchronously (they save
// a warmup simulation) and write behind (pure optimization, regenerable).
type snapshotBacking struct{ p *persister }

func (b snapshotBacking) Load(key string) ([]byte, bool) {
	return b.p.st.Get(snapshotKeyPrefix + key)
}

func (b snapshotBacking) Save(key string, val []byte) {
	b.p.enqueue(persistItem{key: snapshotKeyPrefix + key, val: val})
}

// health summarizes the store for /healthz: "ok" or "degraded".
func (p *persister) health() string {
	if p.st.Degraded() != nil {
		return "degraded"
	}
	return "ok"
}

// renderMetrics appends the store's Prometheus exposition section.
func (p *persister) renderMetrics(b *strings.Builder) {
	st := p.st.Stats()
	p.mu.Lock()
	writes, writeErrors := p.writes, p.writeErrors
	resultHits, resultMisses := p.resultHits, p.resultMisses
	corpusHits, decodeErrors := p.corpusHits, p.decodeErrors
	p.mu.Unlock()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("xbcd_store_writes_total", "records persisted by the write-behind flusher", writes)
	counter("xbcd_store_write_errors_total", "store writes that failed", writeErrors)
	counter("xbcd_store_hits_total", "submissions answered from the persistent store", resultHits)
	counter("xbcd_store_misses_total", "store lookups that found no persisted result", resultMisses)
	counter("xbcd_store_corpus_hits_total", "corpus streams loaded from the store instead of generated", corpusHits)
	counter("xbcd_store_decode_errors_total", "persisted records that failed to decode", decodeErrors)
	counter("xbcd_store_quarantined_total", "corrupt records quarantined at open or read time", st.Quarantined)
	counter("xbcd_store_torn_truncations_total", "torn tails truncated at open", st.TornTruncations)
	counter("xbcd_store_quarantined_files_total", "whole files set aside for an unrecognizable header", st.QuarantinedFiles)
	counter("xbcd_store_compactions_total", "segment compactions", st.Compactions)
	counter("xbcd_store_evicted_total", "records evicted by the size bound", st.Evicted)
	gauge("xbcd_store_records", "live records in the store", int64(st.Records))
	gauge("xbcd_store_segment_bytes", "on-disk segment size", st.SegmentBytes)
	degraded := int64(0)
	if st.Degraded {
		degraded = 1
	}
	gauge("xbcd_store_degraded", "1 when the store has latched read-only after a write error", degraded)
}

// adoptStored builds a terminal Job from a persisted result, replaying
// the queued->done lifecycle with the restore timestamp.
func adoptStored(id string, spec jobspec.Spec, res jobspec.Result, now time.Time) *Job {
	j := newJob(id, spec, now)
	j.complete(res, now)
	return j
}
