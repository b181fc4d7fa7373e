package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// drainHarness builds a 1-shard/1-worker server whose executor blocks on
// release, so the test controls exactly which job is in flight when the
// drain begins.
func drainHarness(t *testing.T) (*Server, string, chan struct{}, chan string) {
	t.Helper()
	release := make(chan struct{})
	started := make(chan string, 16)
	srv, ts := newTestServer(t, Options{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 8,
		Exec: func(s jobspec.Spec) (jobspec.Result, error) {
			started <- s.Label()
			<-release
			return jobspec.Execute(s)
		},
	})
	return srv, ts.URL, release, started
}

func TestDrainSemantics(t *testing.T) {
	srv, base, release, started := drainHarness(t)

	// healthz is ok before the drain.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeBody[api.Health](t, resp); h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}

	// One job in flight (the worker is blocked inside it), two queued
	// behind it on the same single shard.
	inflight := decodeBody[api.SubmitResponse](t, postJSON(t, base+"/v1/jobs", tinySpec()))
	<-started // the worker has claimed it and is blocked
	q1spec := tinySpec()
	q1spec.Uops = 21_000
	q2spec := tinySpec()
	q2spec.Uops = 22_000
	q1 := decodeBody[api.SubmitResponse](t, postJSON(t, base+"/v1/jobs", q1spec))
	q2 := decodeBody[api.SubmitResponse](t, postJSON(t, base+"/v1/jobs", q2spec))
	if q1.Status != api.SubmitQueued || q2.Status != api.SubmitQueued {
		t.Fatalf("queued submits = %+v %+v", q1, q2)
	}

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()

	// The drain flips healthz to draining and rejects new submissions with
	// 503 while the in-flight job is still running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		h := decodeBody[api.Health](t, resp)
		if code == http.StatusServiceUnavailable && h.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rej := postJSON(t, base+"/v1/jobs", jobspec.Spec{Frontend: jobspec.KindTC, Workload: "gcc"})
	if rej.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: %d, want 503", rej.StatusCode)
	}
	if e := decodeBody[api.Error](t, rej); !strings.Contains(e.Error, "draining") {
		t.Fatalf("rejection error %q", e.Error)
	}

	// Queued jobs are aborted deterministically without waiting for the
	// in-flight job.
	for _, id := range []string{q1.ID, q2.ID} {
		job := waitJob(t, base, id)
		if job.State != "aborted" {
			t.Fatalf("queued job %s = %s, want aborted", id, job.State)
		}
	}

	// The in-flight job runs to completion once released, and the drain
	// only returns after it has.
	select {
	case <-drained:
		t.Fatal("drain returned while a job was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed")
	}
	job := waitJob(t, base, inflight.ID)
	if job.State != "done" || job.Metrics == nil {
		t.Fatalf("in-flight job after drain = %s (%s)", job.State, job.Error)
	}

	// Drain is idempotent.
	srv.Drain()
}

// TestDrainUnderLoad races Drain against live sweep submission and the
// store's write-behind flusher. The drain must complete with workers
// still finishing jobs (whose results race into the persist queue) and
// submitters still hammering the API: a completion that loses the race
// used to panic on a send to the closed flusher channel.
func TestDrainUnderLoad(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	srv, ts := newTestServer(t, Options{
		Shards: 2, WorkersPerShard: 2, QueueDepth: 64, Store: st,
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := api.SweepRequest{
					Frontends: []string{jobspec.KindTC},
					Workloads: []string{microWorkloads[(g+i)%len(microWorkloads)]},
					Budgets:   []int{2048 + 1024*(i%3)},
					Uops:      5_000,
				}
				b, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				// Any status is acceptable: accepted before the drain
				// begins, 503 after. Only transport failures are bugs.
				resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(g)
	}

	// Let the submitters build a backlog, then drain through the middle
	// of it while they keep going.
	time.Sleep(10 * time.Millisecond)
	srv.Drain()
	close(stop)
	wg.Wait()

	// Drain is idempotent, and the store latched closed underneath.
	srv.Drain()
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close after drain: %v", err)
	}
}

func TestDrainWithoutJournalRejectsDeterministically(t *testing.T) {
	srv, base, release, started := drainHarness(t)
	sub := decodeBody[api.SubmitResponse](t, postJSON(t, base+"/v1/jobs", tinySpec()))
	<-started
	qspec := tinySpec()
	qspec.Uops = 23_000
	q := decodeBody[api.SubmitResponse](t, postJSON(t, base+"/v1/jobs", qspec))

	go srv.Drain()
	job := waitJob(t, base, q.ID)
	if job.State != "aborted" {
		t.Fatalf("queued job = %s, want aborted", job.State)
	}
	close(release)
	if job := waitJob(t, base, sub.ID); job.State != "done" {
		t.Fatalf("in-flight job = %s", job.State)
	}
}
