package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xbc/internal/interval"
	"xbc/internal/program"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// fakeClock advances one millisecond per reading, so timestamps and
// latency histograms are deterministic under test.
func fakeClock() Clock {
	var mu sync.Mutex
	t0 := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t0 = t0.Add(time.Millisecond)
		return t0
	}
}

// tinySpec is the standard cheap test job.
func tinySpec() jobspec.Spec {
	return jobspec.Spec{Frontend: jobspec.KindXBC, Workload: "straightline", Uops: 20_000, Budget: 4096}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = fakeClock()
	}
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// waitJob polls GET /v1/jobs/{id} until the job is terminal.
func waitJob(t *testing.T, base, id string) api.Job {
	t.Helper()
	for i := 0; i < 2000; i++ {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		job := decodeBody[api.Job](t, resp)
		switch job.State {
		case "done", "failed", "aborted":
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return api.Job{}
}

// The acceptance e2e: a job submitted over HTTP returns Metrics
// bit-identical to a direct run of the same spec, and a second submission
// is a cache hit visible in /metrics.
func TestSubmitRoundTripBitIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	spec := tinySpec()

	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decodeBody[api.SubmitResponse](t, resp)
	if sub.Status != api.SubmitQueued {
		t.Fatalf("first submit status = %q, want queued", sub.Status)
	}
	job := waitJob(t, ts.URL, sub.ID)
	if job.State != "done" {
		t.Fatalf("job state = %q (%s)", job.State, job.Error)
	}
	if job.Metrics == nil {
		t.Fatal("done job has no metrics")
	}

	direct, err := jobspec.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*job.Metrics, direct.Metrics) {
		t.Fatalf("served metrics differ from direct run:\nserved %+v\ndirect %+v", *job.Metrics, direct.Metrics)
	}

	// Second submission of the same spec: immediate cache hit.
	resp2 := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status = %d, want 200", resp2.StatusCode)
	}
	sub2 := decodeBody[api.SubmitResponse](t, resp2)
	if sub2.Status != api.SubmitCached || sub2.ID != sub.ID {
		t.Fatalf("second submit = %+v, want cached %s", sub2, sub.ID)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := mresp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"xbcd_cache_hits_total 1",
		"xbcd_cache_misses_total 1",
		`xbcd_jobs_total{outcome="done"} 1`,
		`xbcd_job_latency_ms_count{frontend="xbc"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	if srv.reg.hitRatio() != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", srv.reg.hitRatio())
	}
}

// Eight-plus concurrent submitters racing over a small spec set: all jobs
// complete, identical specs coalesce to one execution each.
func TestConcurrentSubmitters(t *testing.T) {
	var execMu sync.Mutex
	execCount := map[string]int{}
	_, ts := newTestServer(t, Options{
		Shards: 4, WorkersPerShard: 2,
		Exec: func(s jobspec.Spec) (jobspec.Result, error) {
			execMu.Lock()
			execCount[s.Label()+fmt.Sprint(s.Uops)]++
			execMu.Unlock()
			time.Sleep(time.Millisecond)
			return jobspec.Execute(s)
		},
	})

	specs := make([]jobspec.Spec, 4)
	for i := range specs {
		specs[i] = tinySpec()
		specs[i].Uops = uint64(10_000 + 1000*i) // 4 distinct jobs
	}
	const submitters = 10
	ids := make([][]string, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, spec := range specs {
					resp := postJSON(t, ts.URL+"/v1/jobs", spec)
					sub := decodeBody[api.SubmitResponse](t, resp)
					if sub.ID == "" {
						t.Errorf("submitter %d: empty id", g)
						return
					}
					ids[g] = append(ids[g], sub.ID)
				}
			}
		}(g)
	}
	wg.Wait()

	seen := map[string]bool{}
	for _, got := range ids {
		for _, id := range got {
			seen[id] = true
		}
	}
	if len(seen) != len(specs) {
		t.Fatalf("%d distinct job ids for %d distinct specs", len(seen), len(specs))
	}
	for id := range seen {
		if job := waitJob(t, ts.URL, id); job.State != "done" {
			t.Fatalf("job %s: %s (%s)", id, job.State, job.Error)
		}
	}
	execMu.Lock()
	defer execMu.Unlock()
	for k, n := range execCount {
		if n != 1 {
			t.Errorf("spec %s executed %d times, want 1 (coalescing broken)", k, n)
		}
	}
}

func TestEstimateAttachedAndInvalidCoreRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	core := interval.DefaultCore()
	spec := tinySpec()
	spec.Core = &core

	sub := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", spec))
	job := waitJob(t, ts.URL, sub.ID)
	if job.State != "done" || job.Estimate == nil || job.Estimate.UopsPerCycle <= 0 {
		t.Fatalf("job %+v: estimate missing", job)
	}
	// The plain spec (no core) is a different job: no estimate.
	sub2 := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", tinySpec()))
	if sub2.ID == sub.ID {
		t.Fatal("core config must split the job key")
	}
	if job2 := waitJob(t, ts.URL, sub2.ID); job2.Estimate != nil {
		t.Fatal("estimate attached without a core config")
	}

	// Invalid core config fails validation with 400 — it never reaches a
	// worker.
	bad := tinySpec()
	bad.Core = &interval.CoreConfig{IssueWidth: 0}
	resp := postJSON(t, ts.URL+"/v1/jobs", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid core: status %d, want 400", resp.StatusCode)
	}
	e := decodeBody[api.Error](t, resp)
	if !strings.Contains(e.Error, "core config") {
		t.Fatalf("error %q does not name the core config", e.Error)
	}
}

// TestGeometryBoundsRejected: a geometry leaf out of its bounds, or a
// variant no model has, fails validation with 400 before any worker
// builds a model from it; a geometry in bounds is its own job.
func TestGeometryBoundsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, g := range []jobspec.Geometry{{Ways: 99}, {XBTBEntries: 1000}, {RenamerWidth: -1}, {Variant: "bogus"}} {
		bad := tinySpec()
		bad.Geometry = &g
		resp := postJSON(t, ts.URL+"/v1/jobs", bad)
		if e := decodeBody[api.Error](t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "geometry") {
			t.Errorf("geometry %+v: status %d, error %q; want 400 naming the geometry", g, resp.StatusCode, e.Error)
		}
	}
	plain := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", tinySpec()))
	spec := tinySpec()
	spec.Geometry = &jobspec.Geometry{Ways: 1, Variant: "no-promotion"}
	sub := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", spec))
	if sub.ID == plain.ID {
		t.Fatal("the geometry must split the job key")
	}
	if job := waitJob(t, ts.URL, sub.ID); job.State != "done" {
		t.Fatalf("geometry job: %s (%s)", job.State, job.Error)
	}
}

// TestProgramPastAddressSpaceRejected: an inline program whose code
// could pass 4 GiB fails validation with 400, instead of running on
// addresses that wrapped around.
func TestProgramPastAddressSpaceRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	huge := program.DefaultSpec("huge", 1)
	huge.Functions = 1 << 22
	bad := jobspec.Spec{Frontend: jobspec.KindXBC, Program: &huge, Uops: 20_000, Budget: 4096}
	resp := postJSON(t, ts.URL+"/v1/jobs", bad)
	if e := decodeBody[api.Error](t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "address space") {
		t.Fatalf("status %d, error %q; want 400 naming the address space", resp.StatusCode, e.Error)
	}
}

func TestSweepFanOut(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := api.SweepRequest{
		Frontends: []string{jobspec.KindTC, jobspec.KindXBC},
		Workloads: []string{"straightline", "loopnest"},
		Budgets:   []int{4096},
		Uops:      10_000,
	}
	resp := postJSON(t, ts.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	sw := decodeBody[api.SweepResponse](t, resp)
	if len(sw.Jobs) != 4 {
		t.Fatalf("fanned out %d jobs, want 4", len(sw.Jobs))
	}
	for _, jr := range sw.Jobs {
		if job := waitJob(t, ts.URL, jr.ID); job.State != "done" {
			t.Fatalf("sweep job %s: %s (%s)", jr.ID, job.State, job.Error)
		}
	}
	// An invalid cell rejects the whole sweep at validation time.
	bad := api.SweepRequest{Frontends: []string{"warp"}, Workloads: []string{"straightline"}}
	if resp := postJSON(t, ts.URL+"/v1/sweeps", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sweep status = %d, want 400", resp.StatusCode)
	}
}

func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sub := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", tinySpec()))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var states []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e api.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		states = append(states, e.State)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"queued", "running", "done"}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("event states = %v, want %v", states, want)
	}
}

func TestGetUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFailedJobSurfacesError(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Exec: func(jobspec.Spec) (jobspec.Result, error) {
			panic("hostile simulator")
		},
	})
	sub := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", tinySpec()))
	job := waitJob(t, ts.URL, sub.ID)
	if job.State != "failed" {
		t.Fatalf("state = %q, want failed", job.State)
	}
	if !strings.Contains(job.Error, "panic") {
		t.Fatalf("error %q does not surface the panic", job.Error)
	}
}

// TestResultCacheLRU drives retain directly: a Get refreshes recency, so
// the untouched job is the one evicted from the cache and the registry.
func TestResultCacheLRU(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheJobs: 2})
	for _, id := range []string{"a", "b"} {
		j := testJob(id)
		srv.mu.Lock()
		srv.jobs[id] = j
		srv.mu.Unlock()
		srv.retain(j)
	}
	// Touch a, then retain c: b is now the LRU victim.
	if _, ok := srv.cache.Get("a"); !ok {
		t.Fatal("a missing")
	}
	srv.retain(testJob("c"))
	if _, ok := srv.cache.Get("b"); ok {
		t.Fatal("b still cached after eviction")
	}
	srv.mu.Lock()
	_, pinned := srv.jobs["b"]
	srv.mu.Unlock()
	if pinned {
		t.Fatal("evicted b still in the job registry")
	}
	if _, ok := srv.cache.Get("a"); !ok {
		t.Fatal("a evicted despite being MRU")
	}
	if srv.cache.Len() != 2 {
		t.Fatalf("len = %d, want 2", srv.cache.Len())
	}
}

func TestResultCacheEvictionForgetsJobs(t *testing.T) {
	srv, ts := newTestServer(t, Options{CacheJobs: 1})
	a := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", tinySpec()))
	waitJob(t, ts.URL, a.ID)
	spec2 := tinySpec()
	spec2.Uops = 21_000
	b := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", spec2))
	waitJob(t, ts.URL, b.ID)

	if _, ok := srv.Get(a.ID); ok {
		t.Fatal("evicted job still retained")
	}
	// Resubmission after eviction is a miss, not a hit: it recomputes.
	re := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", tinySpec()))
	if re.Status == api.SubmitCached {
		t.Fatal("evicted job served as cached")
	}
	waitJob(t, ts.URL, re.ID)
}

// TestShorterJobCutsTheKeptStream: a job on a program the corpus already
// holds at a greater length is served a cut of that stream, so
// xbcd_corpus_generations_total does not move. The program is inline and
// seeded apart from every other test's, so the first job must generate.
func TestShorterJobCutsTheKeptStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	p := program.DefaultSpec("corpus-cut", 30)
	p.Functions = 12
	gens := func() uint64 {
		t.Helper()
		var n uint64
		if _, err := fmt.Sscan(metricValue(t, scrapeMetrics(t, ts.URL), "xbcd_corpus_generations_total"), &n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	run := func(uops uint64) uint64 {
		t.Helper()
		spec := jobspec.Spec{Frontend: jobspec.KindXBC, Program: &p, Uops: uops, Budget: 4096}
		sub := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", spec))
		if job := waitJob(t, ts.URL, sub.ID); job.State != "done" {
			t.Fatalf("%d-uop job: %s (%s)", uops, job.State, job.Error)
		}
		return gens()
	}
	before := gens()
	long := run(40_000)
	if long == before {
		t.Fatal("the first job on a new program generated nothing")
	}
	if short := run(25_000); short != long {
		t.Fatalf("a shorter job on the same program moved generations from %d to %d", long, short)
	}
}
