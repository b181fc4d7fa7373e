package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"xbc/internal/runner"
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
//	r:<job content key>      persisted job result (JSON storedResult)
//	c:<corpus content key>   generated trace stream (.xtr bytes)
//	s:<snapshot key>         warm-state snapshot (sealed snapshot blob)

const (
	resultKeyPrefix   = "r:"
	corpusKeyPrefix   = "c:"
	snapshotKeyPrefix = "s:"
)

// storedResult is the persisted form of one completed job. The spec is
// not stored: the submitter supplies it, and the store key is its content
// hash, so key equality is spec equality. Records written by older
// binaries also carry an "attempts" count, which decoding ignores.
type storedResult struct {
	Result jobspec.Result `json:"result"`
}

// persistItem is one pending write-behind entry.
type persistItem struct {
	key string
	val []byte
	// journal marks items worth journaling if the flush fails (results;
	// corpus streams are deterministically regenerable and are not).
	journal bool
}

// persister owns the store on behalf of a Server.
type persister struct {
	st   *store.Store
	jrnl *runner.Journal

	ch        chan persistItem
	stop      chan struct{} // closed by close(); producers and the flusher select on it
	done      chan struct{}
	closeOnce sync.Once

	mu           sync.Mutex
	writes       uint64 // store puts that succeeded
	writeErrors  uint64 // store puts that failed
	resultHits   uint64 // submissions answered from the store
	resultMisses uint64 // store lookups that found nothing
	corpusHits   uint64 // corpus streams loaded instead of generated
	journaled    uint64 // unflushed items handed to the drain journal
	decodeErrors uint64 // stored records that failed to decode
}

// persistQueueDepth bounds the write-behind backlog. Sends block when the
// flusher falls this far behind — a simulation takes orders of magnitude
// longer than a store append, so in practice the queue never fills.
const persistQueueDepth = 1024

func newPersister(st *store.Store, jrnl *runner.Journal) *persister {
	p := &persister{
		st:   st,
		jrnl: jrnl,
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

// flush writes one item, journaling results the store could not take.
func (p *persister) flush(it persistItem) {
	err := p.st.Put(it.key, it.val)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err == nil {
		p.writes++
		return
	}
	p.writeErrors++
	if !it.journal || p.jrnl == nil {
		return
	}
	cell := runner.Cell{Figure: "store", Workload: "unflushed", Config: it.key}
	if jerr := p.jrnl.Record(cell, json.RawMessage(it.val)); jerr == nil {
		p.journaled++
	}
}

// close stops the flusher after draining everything enqueued. Safe to
// call more than once, and safe against producers still racing the
// drain: a late enqueue falls into the stop case and is journaled
// instead of panicking on a closed channel.
func (p *persister) close() {
	p.closeOnce.Do(func() { close(p.stop) })
	//xbc:ignore ctxflow loop closes done unconditionally on return and stop was just closed, so this receive is bounded
	<-p.done
}

// enqueue hands one item to the flusher, or — when the persister has
// been stopped — journals result items directly so a drain racing a
// final completion loses nothing.
func (p *persister) enqueue(it persistItem) {
	select {
	case p.ch <- it:
	case <-p.stop:
		p.mu.Lock()
		defer p.mu.Unlock()
		p.writeErrors++
		if !it.journal || p.jrnl == nil {
			return
		}
		cell := runner.Cell{Figure: "store", Workload: "unflushed", Config: it.key}
		if jerr := p.jrnl.Record(cell, json.RawMessage(it.val)); jerr == nil {
			p.journaled++
		}
	}
}

// saveResult enqueues a completed job's result for write-behind.
func (p *persister) saveResult(id string, res jobspec.Result) {
	val, err := json.Marshal(storedResult{Result: res})
	if err != nil {
		// Result is a plain value struct; this cannot fail. Count it
		// rather than crash a worker if that ever changes.
		p.mu.Lock()
		p.writeErrors++
		p.mu.Unlock()
		return
	}
	p.enqueue(persistItem{key: resultKeyPrefix + id, val: val, journal: true})
}

// loadResult is the read-through path: a persisted result for the content
// key, decoded, or false. A record that fails to decode is counted and
// treated as a miss (the job simply re-runs).
func (p *persister) loadResult(id string) (jobspec.Result, bool) {
	val, ok := p.st.Get(resultKeyPrefix + id)
	if !ok {
		p.mu.Lock()
		p.resultMisses++
		p.mu.Unlock()
		return jobspec.Result{}, false
	}
	var sr storedResult
	if err := json.Unmarshal(val, &sr); err != nil {
		p.mu.Lock()
		p.decodeErrors++
		p.mu.Unlock()
		return jobspec.Result{}, false
	}
	p.mu.Lock()
	p.resultHits++
	p.mu.Unlock()
	return sr.Result, true
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
// stream, written behind. Corpus entries are not journaled on failure —
// they are deterministically regenerable from the spec.
func (p *persister) Save(key string, val []byte) {
	p.enqueue(persistItem{key: corpusKeyPrefix + key, val: val})
}

// snapshotBacking adapts the persister to lru.Backing under the
// "s:" namespace: warm-state blobs read through synchronously (they save
// a warmup simulation) and write behind (pure optimization, regenerable,
// never journaled).
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
	corpusHits, journaled, decodeErrors := p.corpusHits, p.journaled, p.decodeErrors
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
	counter("xbcd_store_journal_drops_total", "unflushed results handed to the drain journal", journaled)
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
