package service

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
	"xbc/internal/store"
)

// openStoreT opens a store for the persistence tests.
func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// TestWarmStartServesBitIdenticalWithoutReexecution is the tentpole
// acceptance test: run a job in one server generation, drain, reopen the
// store in a second generation whose executor refuses to run anything,
// and get the identical result back as a cache hit.
func TestWarmStartServesBitIdenticalWithoutReexecution(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()

	st1 := openStoreT(t, dir)
	srv1, ts1 := newTestServer(t, Options{Store: st1})
	resp := postJSON(t, ts1.URL+"/v1/jobs", spec)
	first := decodeBody[api.SubmitResponse](t, resp)
	job1 := waitJob(t, ts1.URL, first.ID)
	if job1.State != "done" {
		t.Fatalf("generation 1 job state = %q (%s)", job1.State, job1.Error)
	}
	srv1.Drain() // flushes the write-behind queue
	if !st1.Has("r:" + first.ID) {
		t.Fatal("drained server did not persist the completed result")
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}
	_ = srv1

	// Generation 2: a fresh process image — empty in-memory caches, an
	// executor that must never run.
	st2 := openStoreT(t, dir)
	defer st2.Close()
	_, ts2 := newTestServer(t, Options{
		Store: st2,
		Exec: func(jobspec.Spec) (jobspec.Result, error) {
			t.Error("warm start re-executed a persisted job")
			return jobspec.Result{}, nil
		},
	})
	resp = postJSON(t, ts2.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm submit status = %d, want 200 (cached)", resp.StatusCode)
	}
	second := decodeBody[api.SubmitResponse](t, resp)
	if second.Status != api.SubmitCached {
		t.Fatalf("warm submit = %q, want cached", second.Status)
	}
	if second.ID != first.ID {
		t.Fatalf("content key changed across restart: %s vs %s", second.ID, first.ID)
	}
	job2 := waitJob(t, ts2.URL, second.ID)
	if job2.State != "done" {
		t.Fatalf("restored job state = %q", job2.State)
	}
	// Bit-identical served metrics: compare the wire JSON.
	m1, err := json.Marshal(job1.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := json.Marshal(job2.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if string(m1) != string(m2) {
		t.Fatalf("restored metrics differ from the original run:\n%s\nvs\n%s", m1, m2)
	}
	if !reflect.DeepEqual(job1.Estimate, job2.Estimate) {
		t.Fatal("restored estimate differs from the original run")
	}
}

// TestWarmStartReadsRecordsWithAttempts: result records written by older
// binaries carry an "attempts" count next to the result. A store holding
// such a record must still warm-start: a store hit, no re-execution, and
// metrics bit-identical to the run that produced it.
func TestWarmStartReadsRecordsWithAttempts(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()

	st1 := openStoreT(t, dir)
	srv1, ts1 := newTestServer(t, Options{Store: st1})
	first := decodeBody[api.SubmitResponse](t, postJSON(t, ts1.URL+"/v1/jobs", spec))
	job1 := waitJob(t, ts1.URL, first.ID)
	if job1.State != "done" {
		t.Fatalf("generation 1 job state = %q (%s)", job1.State, job1.Error)
	}
	srv1.Drain()
	val, ok := st1.Get("r:" + first.ID)
	if !ok || !strings.HasPrefix(string(val), `{"result":`) {
		t.Fatalf("persisted record = %q, want a storedResult", val)
	}
	// The older layout: the same record with the count field first.
	old := `{"attempts":1,` + string(val[1:])
	if err := st1.Put("r:"+first.ID, []byte(old)); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStoreT(t, dir)
	defer st2.Close()
	srv2, ts2 := newTestServer(t, Options{
		Store: st2,
		Exec: func(jobspec.Spec) (jobspec.Result, error) {
			t.Error("warm start re-executed a job stored in the older layout")
			return jobspec.Result{}, nil
		},
	})
	second := decodeBody[api.SubmitResponse](t, postJSON(t, ts2.URL+"/v1/jobs", spec))
	if second.Status != api.SubmitCached || second.ID != first.ID {
		t.Fatalf("warm submit = %+v, want cached %s", second, first.ID)
	}
	srv2.persist.mu.Lock()
	hits := srv2.persist.resultHits
	srv2.persist.mu.Unlock()
	if hits != 1 {
		t.Fatalf("store result hits = %d, want 1", hits)
	}
	job2 := waitJob(t, ts2.URL, second.ID)
	m1, err := json.Marshal(job1.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := json.Marshal(job2.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if job2.State != "done" || string(m1) != string(m2) {
		t.Fatalf("restored job %q, metrics:\n%s\nwant:\n%s", job2.State, m2, m1)
	}
}

// TestStoreBackstopsLRUEviction: a result evicted from the in-memory LRU
// is still served from the store without re-execution.
func TestStoreBackstopsLRUEviction(t *testing.T) {
	dir := t.TempDir()
	st := openStoreT(t, dir)
	defer st.Close()
	execs := map[string]int{}
	var srv *Server
	srv, ts := newTestServer(t, Options{
		Store:     st,
		CacheJobs: 1, // evict aggressively
		Exec: func(s jobspec.Spec) (jobspec.Result, error) {
			key, _ := s.Key()
			execs[key]++ // workers run sequentially enough here; see below
			return jobspec.Execute(s)
		},
		Shards:          1,
		WorkersPerShard: 1,
	})
	_ = srv
	specA := tinySpec()
	specB := tinySpec()
	specB.Budget = 8192 // different key

	subA := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", specA))
	waitJob(t, ts.URL, subA.ID)
	subB := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", specB))
	waitJob(t, ts.URL, subB.ID)

	// A is now evicted from the 1-entry LRU. Wait for the write-behind
	// flusher to land A's record, then resubmit: the store must answer.
	for i := 0; i < 2000 && !st.Has("r:"+subA.ID); i++ {
		time.Sleep(time.Millisecond)
	}
	if !st.Has("r:" + subA.ID) {
		t.Fatal("write-behind never persisted spec A")
	}
	again := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", specA))
	if again.Status != api.SubmitCached {
		t.Fatalf("evicted job not served from store: %q", again.Status)
	}
	if got := execs[subA.ID]; got != 1 {
		t.Fatalf("spec A executed %d times, want exactly 1", got)
	}
}

// TestHealthReportsStoreState covers the three /healthz store shapes:
// absent, ok, and unavailable (open failed; memory-only fallback).
func TestHealthReportsStoreState(t *testing.T) {
	_, tsNone := newTestServer(t, Options{})
	h := decodeBody[api.Health](t, mustGetHTTP(t, tsNone.URL+"/healthz"))
	if h.Store != "" {
		t.Fatalf("storeless health.store = %q, want empty", h.Store)
	}

	st := openStoreT(t, t.TempDir())
	defer st.Close()
	_, tsOK := newTestServer(t, Options{Store: st})
	h = decodeBody[api.Health](t, mustGetHTTP(t, tsOK.URL+"/healthz"))
	if h.Store != "ok" {
		t.Fatalf("health.store = %q, want ok", h.Store)
	}

	_, tsErr := newTestServer(t, Options{StoreErr: "open failed: disk on fire"})
	h = decodeBody[api.Health](t, mustGetHTTP(t, tsErr.URL+"/healthz"))
	if !strings.HasPrefix(h.Store, "unavailable:") {
		t.Fatalf("health.store = %q, want unavailable prefix", h.Store)
	}
}

func mustGetHTTP(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMetricsExposeStoreCounters: /metrics grows the store section when a
// store is configured, including the warm-start hit counter.
func TestMetricsExposeStoreCounters(t *testing.T) {
	dir := t.TempDir()
	st := openStoreT(t, dir)
	srv, ts := newTestServer(t, Options{Store: st})
	sub := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", tinySpec()))
	waitJob(t, ts.URL, sub.ID)
	srv.Drain()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStoreT(t, dir)
	defer st2.Close()
	_, ts2 := newTestServer(t, Options{Store: st2})
	again := decodeBody[api.SubmitResponse](t, postJSON(t, ts2.URL+"/v1/jobs", tinySpec()))
	if again.Status != api.SubmitCached {
		t.Fatalf("warm resubmit = %q", again.Status)
	}
	resp := mustGetHTTP(t, ts2.URL+"/metrics")
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"xbcd_store_hits_total 1",
		"xbcd_store_records",
		"xbcd_store_degraded 0",
		"xbcd_cache_misses_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// TestPersisterSkipsFailedJobs: only done jobs persist; a failed job
// leaves no store record to poison a future warm start.
func TestPersisterSkipsFailedJobs(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	defer st.Close()
	srv, ts := newTestServer(t, Options{
		Store: st,
		Exec: func(jobspec.Spec) (jobspec.Result, error) {
			return jobspec.Result{}, os.ErrInvalid
		},
	})
	sub := decodeBody[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/jobs", tinySpec()))
	job := waitJob(t, ts.URL, sub.ID)
	if job.State != "failed" {
		t.Fatalf("job state = %q, want failed", job.State)
	}
	srv.Drain()
	if st.Has("r:" + sub.ID) {
		t.Fatal("failed job was persisted")
	}
}
