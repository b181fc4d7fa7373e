// Package service is the long-running simulation server behind cmd/xbcd:
// a bounded job queue feeding sharded workers, a content-addressed result
// cache, and an HTTP/JSON API with live observability.
//
// The lifecycle of a job:
//
//	POST /v1/jobs -> validate (jobspec) -> content key
//	   key already terminal?   -> answered from the result cache ("cached")
//	   key queued or running?  -> attached to that job ("coalesced")
//	   otherwise               -> enqueued on key-hash shard ("queued")
//	worker: queued -> running -> done | failed   (planner.Isolate: one
//	        execution, panic isolation, per-job timeout)
//	drain:  queued -> aborted ("drained"; resubmitting is idempotent)
//
// Determinism: simulations are bit-reproducible, so the result cache is
// semantically transparent — a cached answer is byte-identical to a fresh
// run of the same spec. Time enters only through the injected Clock;
// handlers never read the wall clock themselves.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xbc/internal/corpus"
	"xbc/internal/lru"
	"xbc/internal/planner"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
	"xbc/internal/snapshot"
	"xbc/internal/store"
)

// Clock supplies the current time. The daemon injects time.Now; tests
// inject a fake so job timestamps and latency histograms are
// deterministic. A nil Clock reads as the zero time everywhere.
type Clock func() time.Time

func (c Clock) now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c()
}

// ErrDraining is returned by Submit once a drain has begun; the HTTP
// layer maps it to 503.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// Options configures a Server. Zero fields take the documented defaults.
type Options struct {
	// Shards is the number of queue shards (default 4); jobs are routed by
	// content-key hash. WorkersPerShard (default 1) goroutines serve each.
	Shards          int
	WorkersPerShard int
	// QueueDepth bounds each shard's queued-job backlog (default 64).
	QueueDepth int
	// CacheJobs bounds the terminal jobs the result cache retains
	// (default 256).
	CacheJobs int
	// JobTimeout bounds each execution (0 = unbounded); it maps directly
	// onto planner.Isolate's deadline.
	JobTimeout time.Duration
	// MaxUops caps the per-job stream length a submission may request
	// (default 50M) — the one resource limit validation alone cannot set.
	MaxUops uint64
	// SnapshotEntries bounds the in-memory warm-state snapshot cache
	// (default 64; negative disables snapshotting). Snapshots are an exact
	// shortcut: a full run restoring one is bit-identical to a cold run.
	SnapshotEntries int
	// UpgradeSampled, when set, resubmits the full-fidelity sibling of
	// every completed sampled/estimate job, so approximate answers served
	// immediately are upgraded to exact ones in the background.
	UpgradeSampled bool
	// Clock stamps job lifecycle events. The daemon binds time.Now here;
	// leaving it nil (tests) makes all timestamps zero.
	Clock Clock
	// Store, when non-nil, persists completed results and generated
	// corpus streams beneath the in-memory caches: submissions read
	// through to it on a cache miss (warm start after restart), and
	// completed jobs write behind to it off the worker path.
	Store *store.Store
	// StoreErr records why a configured store could not be opened — the
	// daemon fell back to memory-only mode — and is surfaced on /healthz.
	StoreErr string
	// Exec overrides job execution (tests). Default: jobspec.Execute.
	Exec func(jobspec.Spec) (jobspec.Result, error)
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.WorkersPerShard <= 0 {
		o.WorkersPerShard = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheJobs <= 0 {
		o.CacheJobs = 256
	}
	if o.MaxUops == 0 {
		o.MaxUops = 50_000_000
	}
	if o.SnapshotEntries == 0 {
		o.SnapshotEntries = 64
	}
	if o.Exec == nil {
		o.Exec = jobspec.Execute
	}
	return o
}

// Server is the simulation service.
type Server struct {
	opts  Options
	queue *queue
	// cache is the LRU over completed jobs: jobs pins queued and running
	// jobs unconditionally, and once a job reaches a terminal state its
	// retention is governed here. It stores whole *Job records, so
	// GET /v1/jobs/{id} and the events replay keep working for as long as
	// the result is retained.
	cache   *lru.Cache[string, *Job]
	reg     *metricsReg
	persist *persister        // nil when no store is configured
	snap    *snapshot.Manager // nil when snapshotting is disabled

	mu   sync.Mutex
	jobs map[string]*Job // every retained job: queued, running, and cached terminal

	draining  atomic.Bool
	wg        sync.WaitGroup
	drainOnce sync.Once
}

// New starts a Server: shard workers are running on return. When a store
// is configured its write-behind flusher starts too, and the process-wide
// trace corpus is wired through it, so generated streams persist as well.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		queue: newQueue(opts.Shards, opts.QueueDepth),
		cache: lru.New[string, *Job](opts.CacheJobs),
		reg:   newMetricsReg(),
		jobs:  make(map[string]*Job),
	}
	if opts.Store != nil {
		s.persist = newPersister(opts.Store)
		corpus.SetStore(s.persist)
	}
	if opts.SnapshotEntries > 0 {
		var backing lru.Backing
		if s.persist != nil {
			backing = snapshotBacking{s.persist}
		}
		s.snap = snapshot.NewManager(opts.SnapshotEntries, backing)
		jobspec.SetSnapshotManager(s.snap)
	}
	for shard := 0; shard < opts.Shards; shard++ {
		for w := 0; w < opts.WorkersPerShard; w++ {
			s.wg.Add(1)
			go s.worker(shard)
		}
	}
	return s
}

// submitOutcome is the fine-grained submission disposition. The public
// api statuses collapse cache and store hits into "cached"; the sweep
// planner's report keeps them apart.
type submitOutcome int

const (
	outcomeQueued submitOutcome = iota
	outcomeCoalesced
	outcomeCacheHit // terminal result already in memory
	outcomeStoreHit // adopted from the persistent store on this submission
)

// apiStatus maps the outcome to its wire status.
func (o submitOutcome) apiStatus() string {
	switch o {
	case outcomeCoalesced:
		return api.SubmitCoalesced
	case outcomeCacheHit, outcomeStoreHit:
		return api.SubmitCached
	default:
		return api.SubmitQueued
	}
}

// Submit validates the spec and returns the job serving it plus the
// submission status: api.SubmitCached (terminal result in hand),
// api.SubmitCoalesced (identical spec already in flight), or
// api.SubmitQueued (new job enqueued). Validation errors, ErrDraining,
// and ErrQueueFull are the failure modes.
func (s *Server) Submit(spec jobspec.Spec) (*Job, string, error) {
	j, outcome, err := s.submitSpec(spec)
	if err != nil {
		return nil, "", err
	}
	return j, outcome.apiStatus(), nil
}

// submitSpec validates and canonicalizes the spec, then submits by key.
func (s *Server) submitSpec(spec jobspec.Spec) (*Job, submitOutcome, error) {
	if s.draining.Load() {
		s.reg.reject()
		return nil, 0, ErrDraining
	}
	n := spec.Normalize()
	if err := n.Validate(); err != nil {
		return nil, 0, err
	}
	key, err := n.Key()
	if err != nil {
		return nil, 0, err
	}
	return s.submitKeyed(n, key)
}

// submitKeyed is the key-addressed submission path: the caller has
// already normalized, validated, and keyed the spec (Submit for single
// jobs, the sweep planner for grid cells — which canonicalizes each cell
// exactly once however many grid positions share it).
func (s *Server) submitKeyed(n jobspec.Spec, key string) (*Job, submitOutcome, error) {
	if s.draining.Load() {
		s.reg.reject()
		return nil, 0, ErrDraining
	}
	if n.Uops > s.opts.MaxUops {
		return nil, 0, fmt.Errorf("service: %d uops exceeds the per-job cap of %d", n.Uops, s.opts.MaxUops)
	}

	// A full result satisfies a sampled or estimate request — it is the
	// exact value every approximate rung advertises a bound around — so
	// probe the full-fidelity sibling first (the reverse never holds: a
	// full request is never served from an approximation).
	var fullSpec jobspec.Spec
	fullKey := ""
	if n.Fidelity != "" {
		fullSpec = n
		fullSpec.Fidelity = ""
		if k, err := fullSpec.Key(); err == nil {
			fullKey = k
		}
	}

	s.mu.Lock()
	if fullKey != "" {
		if fj, ok := s.jobs[fullKey]; ok && fj.State() == JobDone {
			s.mu.Unlock()
			s.cache.Get(fullKey) // refresh recency
			s.reg.submit(api.SubmitCached)
			return fj, outcomeCacheHit, nil
		}
	}
	if j, ok := s.jobs[key]; ok {
		terminal := j.State().terminal()
		s.mu.Unlock()
		if terminal {
			s.cache.Get(key) // refresh recency
			s.reg.submit(api.SubmitCached)
			return j, outcomeCacheHit, nil
		}
		s.reg.submit(api.SubmitCoalesced)
		return j, outcomeCoalesced, nil
	}
	// Memory miss: read through to the persistent store before paying for
	// a simulation. A hit adopts the stored result as a terminal job —
	// this is the warm start after a restart, and the backstop when the
	// LRU evicted a result the store still holds.
	if s.persist != nil {
		if fullKey != "" {
			if res, ok := s.persist.loadResult(fullKey); ok {
				j := adoptStored(fullKey, fullSpec, res, s.opts.Clock.now())
				s.jobs[fullKey] = j
				s.mu.Unlock()
				s.retain(j)
				s.reg.submit(api.SubmitCached)
				return j, outcomeStoreHit, nil
			}
		}
		if res, ok := s.persist.loadResult(key); ok {
			j := adoptStored(key, n, res, s.opts.Clock.now())
			s.jobs[key] = j
			s.mu.Unlock()
			s.retain(j)
			s.reg.submit(api.SubmitCached)
			return j, outcomeStoreHit, nil
		}
	}
	j := newJob(key, n, s.opts.Clock.now())
	s.jobs[key] = j
	s.mu.Unlock()

	if err := s.queue.push(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, key)
		s.mu.Unlock()
		s.reg.reject()
		if errors.Is(err, errQueueClosed) {
			return nil, 0, ErrDraining
		}
		return nil, 0, err
	}
	s.reg.submit(api.SubmitQueued)
	return j, outcomeQueued, nil
}

// Get returns the job with the given content key, if retained.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops intake (Submit returns ErrDraining, /healthz flips to
// draining), aborts every still-queued job, waits for in-flight jobs to
// finish, flushes the store's write-behind queue, and returns. A drained
// job's ID is its content key, so resubmitting it later is idempotent. It
// is idempotent; concurrent callers all block until the first drain
// completes.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		for _, j := range s.queue.close() {
			s.abort(j)
		}
	})
	s.wg.Wait()
	if s.snap != nil {
		jobspec.ClearSnapshotManager(s.snap)
	}
	if s.persist != nil {
		// Workers are done, so nothing produces into the queue anymore;
		// closing it flushes every pending write before Drain returns.
		s.persist.close()
		corpus.ClearStore(s.persist)
	}
}

// abort marks a queued job rejected-by-drain.
func (s *Server) abort(j *Job) {
	j.transition(JobAborted, s.opts.Clock.now(), "drained")
	s.finish(j)
}

// worker serves one shard until the queue closes.
func (s *Server) worker(shard int) {
	defer s.wg.Done()
	for j := range s.queue.shards[shard] {
		// A drain that began after this job was queued rejects it here, so
		// queued-at-drain jobs abort deterministically no matter whether
		// the drainer or a worker dequeues them.
		if s.draining.Load() {
			s.abort(j)
			continue
		}
		s.run(j)
	}
}

// run executes one job once through planner.Isolate: panic isolation and
// the per-job deadline.
func (s *Server) run(j *Job) {
	s.reg.inflightAdd(1)
	defer s.reg.inflightAdd(-1)
	j.transition(JobRunning, s.opts.Clock.now(), "")
	name := "job/" + j.Spec.Label() + "/" + j.ID
	v, err := planner.Isolate(context.Background(), name, s.opts.JobTimeout, func(context.Context) (any, error) {
		return s.opts.Exec(j.Spec)
	})
	if err != nil {
		j.fail(err.Error(), s.opts.Clock.now())
	} else {
		j.complete(v.(jobspec.Result), s.opts.Clock.now())
	}
	s.finish(j)
}

// finish moves a terminal job under result-cache retention, tallies its
// outcome, hands completed results to the write-behind flusher, and —
// with UpgradeSampled — chases a completed approximate result with its
// exact full-fidelity sibling.
func (s *Server) finish(j *Job) {
	lat, ok := j.latency()
	s.reg.outcome(j.State().String(), j.Spec.Frontend, j.resultFidelity(), lat, ok && j.State() == JobDone)
	if s.persist != nil {
		if res, ok := j.result(); ok {
			s.persist.saveResult(j.ID, res)
		}
	}
	s.retain(j)
	if s.opts.UpgradeSampled && j.State() == JobDone && j.Spec.Fidelity != "" {
		full := j.Spec
		full.Fidelity = ""
		if key, err := full.Key(); err == nil {
			// Best-effort: queue-full or draining just means no upgrade.
			// push never blocks, so this is safe from a worker goroutine.
			//xbc:ignore errdrop upgrade is opportunistic; rejection leaves the sampled result standing
			_, _, _ = s.submitKeyed(full, key)
		}
	}
}

// retain pins a terminal job in the result cache and unpins whatever the
// LRU evicted from the job registry.
func (s *Server) retain(j *Job) {
	if id, evicted := s.cache.Put(j.ID, j); evicted {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
	}
}

// QueueDepth reports the queued-not-claimed job count (for /metrics).
func (s *Server) QueueDepth() int { return s.queue.depth() }
