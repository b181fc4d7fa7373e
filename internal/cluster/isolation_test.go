package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xbc/internal/cluster"
	"xbc/internal/planner/grid"
	"xbc/internal/service"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// selfURL names the node under test; nothing ever connects to it, since
// its handler is called in-process.
const selfURL = "http://self.invalid"

func fastExec(jobspec.Spec) (jobspec.Result, error) { return jobspec.Result{}, nil }

// newService starts a service with the fast executor, drained when the
// test ends.
func newService(t *testing.T) *service.Server {
	t.Helper()
	svc := service.New(service.Options{SnapshotEntries: -1, Exec: fastExec})
	t.Cleanup(svc.Drain)
	return svc
}

// hangingPeer is a live peer that answers nothing: each request it
// receives signals arrived, then waits until its client gives up or the
// test ends.
func hangingPeer(t *testing.T) (url string, arrived <-chan struct{}) {
	t.Helper()
	ch := make(chan struct{}, 1)
	done := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return
		}
		select {
		case ch <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-done:
		}
	}))
	t.Cleanup(peer.Close)
	t.Cleanup(func() { close(done) }) // runs first: releases the handlers Close waits for
	return peer.URL, ch
}

// serveCancelled serves req on h with a context the test cancels as soon
// as the hanging peer receives its first forwarded request: the client
// leaves while a forward to a live owner is in flight.
func serveCancelled(h http.Handler, req *http.Request, arrived <-chan struct{}) *httptest.ResponseRecorder {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-arrived:
			cancel()
		case <-ctx.Done():
		}
	}()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.WithContext(ctx))
	return rec
}

// TestCancelledRequestNoFallback: a forward that fails because the client
// cancelled its request is not an unreachable owner. The gateway counts
// no fallback and queues nothing locally, for a submit, a job get and the
// cells of a sweep.
func TestCancelledRequestNoFallback(t *testing.T) {
	setup := func(t *testing.T) (*service.Server, *cluster.Cluster, http.Handler, <-chan struct{}) {
		peerURL, arrived := hangingPeer(t)
		svc := newService(t)
		cl := cluster.New(cluster.Options{Self: selfURL, Peers: []string{peerURL}})
		return svc, cl, cl.Handler(svc.Handler()), arrived
	}
	peerOwned := func(t *testing.T, cl *cluster.Cluster) (jobspec.Spec, string) {
		t.Helper()
		spec := tinySpec()
		for spec.Uops = 20_000; spec.Uops < 24_096; spec.Uops++ {
			key, err := spec.Key()
			if err != nil {
				t.Fatal(err)
			}
			if _, local := cl.Owner(key); !local {
				return spec, key
			}
		}
		t.Fatal("no spec variant owned by the peer")
		return spec, ""
	}
	noFallback := func(t *testing.T, cl *cluster.Cluster) {
		t.Helper()
		if _, fb, _ := cl.Counters(); fb != 0 {
			t.Errorf("fallbacks = %d after a cancelled request, want 0", fb)
		}
	}

	t.Run("submit", func(t *testing.T) {
		svc, cl, h, arrived := setup(t)
		spec, key := peerOwned(t, cl)
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec := serveCancelled(h, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)), arrived)
		noFallback(t, cl)
		if _, ok := svc.Get(key); ok {
			t.Errorf("the gateway queued the peer's job for a gone client (response %d %s)", rec.Code, rec.Body)
		}
	})

	t.Run("job", func(t *testing.T) {
		_, cl, h, arrived := setup(t)
		_, key := peerOwned(t, cl)
		serveCancelled(h, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+key, nil), arrived)
		noFallback(t, cl)
	})

	t.Run("sweep", func(t *testing.T) {
		svc, cl, h, arrived := setup(t)
		// A 6-cell sweep on the uops of a peer-owned spec: at least that
		// cell goes to the peer.
		spec, _ := peerOwned(t, cl)
		req := api.SweepRequest{
			Frontends: []string{spec.Frontend},
			Workloads: []string{spec.Workload},
			Budgets:   []int{spec.Budget, 5120, 6144, 7168, 8192, 9216},
			Uops:      spec.Uops,
		}
		cells, err := grid.Expand(grid.Grid{Frontends: req.Frontends, Workloads: req.Workloads, Budgets: req.Budgets, Uops: req.Uops})
		if err != nil {
			t.Fatal(err)
		}
		var remote []string
		for _, c := range cells {
			if _, local := cl.Owner(c.Key); !local {
				remote = append(remote, c.Key)
			}
		}
		if len(remote) == 0 {
			t.Fatal("no cell of the sweep is owned by the peer")
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		serveCancelled(h, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)), arrived)
		noFallback(t, cl)
		for _, key := range remote {
			if _, ok := svc.Get(key); ok {
				t.Errorf("the gateway queued peer-owned cell %s for a gone client", key)
			}
		}
	})
}

// TestClusterSweepCellPanicRefused: a scattered cell whose handler panics
// is refused as one cell, with the panic in its error; the other cells
// are served, and the daemon keeps running. Both response forms account
// for every unique cell once.
func TestClusterSweepCellPanicRefused(t *testing.T) {
	inner := newService(t).Handler()
	panicky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		if bytes.Contains(body, []byte(`"quake"`)) {
			panic("hostile sweep cell")
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		inner.ServeHTTP(w, r)
	})
	h := cluster.New(cluster.Options{Self: selfURL}).Handler(panicky)
	body, err := json.Marshal(api.SweepRequest{
		Frontends: []string{jobspec.KindXBC},
		Workloads: []string{"gcc", "quake", "li", "quake"},
		Budgets:   []int{4096},
		Uops:      2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps"+query, bytes.NewReader(body)))
		return rec
	}
	checkRefused := func(t *testing.T, sw api.SweepResponse) {
		t.Helper()
		checkBalance(t, sw.Plan)
		if sw.Plan.Planned != 4 || sw.Plan.Deduped != 1 || sw.Plan.Unsubmitted != 1 {
			t.Errorf("plan = %+v, want 4 planned, 1 deduped, 1 unsubmitted", sw.Plan)
		}
		if len(sw.Jobs) != 2 {
			t.Errorf("jobs = %d, want the 2 healthy cells", len(sw.Jobs))
		}
		if !strings.Contains(sw.Error, "panic: hostile sweep cell") {
			t.Errorf("error %q does not carry the panic", sw.Error)
		}
	}

	rec := sweep("")
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500 for the refused cell", rec.Code)
	}
	var sw api.SweepResponse
	if err := json.NewDecoder(rec.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	checkRefused(t, sw)

	var served, refused int
	var final *api.SweepResponse
	sc := bufio.NewScanner(sweep("?stream=ndjson").Body)
	for sc.Scan() {
		var ev api.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch {
		case ev.Done:
			final = ev.Sweep
		case ev.Job != nil:
			served++
		case strings.Contains(ev.Error, "panic"):
			refused++
		default:
			t.Errorf("bad cell line: %+v", ev)
		}
	}
	if served != 2 || refused != 1 {
		t.Errorf("stream lines: %d served, %d refused; want 2 and 1", served, refused)
	}
	if final == nil {
		t.Fatal("stream carried no final merged response")
	}
	checkRefused(t, *final)
}
