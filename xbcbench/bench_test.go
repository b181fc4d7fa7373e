package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p90, err := percentile(xs, 0.90)
	if err != nil {
		t.Fatalf("p90 of 100 samples (10 beyond): %v", err)
	}
	if p90 != 90 {
		t.Errorf("p90 = %g, want 90", p90)
	}
	if _, err := percentile(xs[:99], 0.90); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was reported")
	}
	if _, err := percentile(xs[:19], 0.50); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was reported")
	}
	if p50, err := percentile(xs[:20], 0.50); err != nil || p50 != 10 {
		t.Errorf("p50 of 20 samples = %g, %v; want 10", p50, err)
	}
}

// TestCorruptedResultFails serves a job through HTTP and checks that the
// gate passes the intact result and fails each corrupted one.
func TestCorruptedResultFails(t *testing.T) {
	spec := jobspec.Spec{Frontend: jobspec.KindXBC, Workload: "straightline", Uops: 20_000, Budget: 4096}
	res, err := jobspec.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	intact := api.Job{ID: "job", State: "done", Spec: spec.Normalize(), Fidelity: res.EffectiveFidelity()}
	m := res.Metrics
	intact.Metrics = &m

	for _, tc := range []struct {
		name    string
		corrupt func(j *api.Job)
		failed  int
	}{
		{"intact", func(*api.Job) {}, 0},
		{"metric off by one", func(j *api.Job) { m := *j.Metrics; m.StructMisses++; j.Metrics = &m }, 1},
		{"approximation served for an exact request", func(j *api.Job) { j.Fidelity = jobspec.FidelitySampled }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := intact
			tc.corrupt(&j)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/jobs/job" {
					http.NotFound(w, r)
					return
				}
				if err := json.NewEncoder(w).Encode(j); err != nil {
					t.Error(err)
				}
			}))
			defer srv.Close()
			c := &client{hc: srv.Client()}
			got, err := c.result(srv.URL, "job", api.SubmitCached)
			if err != nil {
				t.Fatal(err)
			}
			g := &gate{}
			if err := g.checkServed(spec, got); err != nil {
				t.Fatal(err)
			}
			if g.checked != 1 || g.failed != tc.failed {
				t.Errorf("checked %d, failed %d; want 1, %d (%s)", g.checked, g.failed, tc.failed, strings.Join(g.notes, "; "))
			}
		})
	}
}

// TestJobListsFollowSeed checks that one seed always yields one request
// list and another seed a different one, for every workload.
func TestJobListsFollowSeed(t *testing.T) {
	lists := map[string]func(seed int64) any{
		"cold":   func(seed int64) any { return coldJobs(seed, 200) },
		"sweep":  func(seed int64) any { return sweepRequests(seed, 300) },
		"cached": func(seed int64) any { return cachedDraws(seed, 5000, len(cachedKeys(0))) },
	}
	for name, list := range lists {
		if !reflect.DeepEqual(list(7), list(7)) {
			t.Errorf("%s: seed 7 gave two different lists", name)
		}
		if reflect.DeepEqual(list(7), list(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", name)
		}
	}
}

func TestColdJobsNeverRepeatATrace(t *testing.T) {
	seen := make(map[uint64]bool)
	for _, j := range coldJobs(3, 500) {
		if seen[j.Uops] {
			t.Fatalf("length %d used twice", j.Uops)
		}
		seen[j.Uops] = true
	}
}

func TestCachedKeySetOutgrowsRingCache(t *testing.T) {
	keys := make(map[string]bool)
	for _, spec := range cachedKeys(0) {
		k, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if want := 2 * cachedNodes * 256; len(keys) < want {
		t.Errorf("%d distinct keys, want at least %d", len(keys), want)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "edge", Start: 10, End: 50},
		{ID: 3, Parent: 2, Name: "edge", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "queue", Start: 45, End: 70}, // overlaps span 2
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 40, 2: 20, 3: 20, 4: 25} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}
