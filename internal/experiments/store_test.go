package experiments

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"xbc/internal/corpus/corpustest"
	"xbc/internal/planner"
	"xbc/internal/program"
	"xbc/internal/service"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
	"xbc/internal/workload"
)

// planOf runs fig under o with a fresh tally and returns its plan report.
func planOf(t *testing.T, o Options, fig func(Options) error) planner.Report {
	t.Helper()
	tally := &planner.Tally{}
	o.Plan = tally
	if err := fig(o); err != nil {
		t.Fatal(err)
	}
	return tally.Snapshot()
}

func pathAssoc(o Options) error { _, err := PathAssociativity(o); return err }
func figure1(o Options) error   { _, err := Figure1(o); return err }
func figure10(o Options) error  { _, err := Figure10(o); return err }

// TestXKeysCarryOnlyWhatCellsRead: a cell's store key holds the inputs
// the cell reads and nothing else. The extra studies always run in full,
// so a sampled run serves a full one; Figure 10 reads the rung, so it
// does not; Figure 1 reads neither budget nor rung.
func TestXKeysCarryOnlyWhatCellsRead(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 20_000
	o.Assocs = []int{2}
	o.Store = openStoreT(t, t.TempDir())

	sampled := o
	sampled.Fidelity = jobspec.FidelitySampled
	if p := planOf(t, sampled, pathAssoc); p.Simulated != len(o.Workloads) {
		t.Fatalf("sampled pathassoc: %s", p.String())
	}
	if p := planOf(t, o, pathAssoc); p.Simulated != 0 || p.Reused != len(o.Workloads) {
		t.Errorf("full pathassoc after a sampled run: %s, want every cell reused", p.String())
	}

	if p := planOf(t, sampled, figure10); p.Simulated != len(o.Workloads) {
		t.Fatalf("sampled Figure 10: %s", p.String())
	}
	if p := planOf(t, o, figure10); p.Simulated != len(o.Workloads) {
		t.Errorf("full Figure 10 after a sampled run: %s, want every cell simulated", p.String())
	}

	o.Budget = 8 * 1024
	if p := planOf(t, o, figure1); p.Simulated != len(o.Workloads) {
		t.Fatalf("Figure 1: %s", p.String())
	}
	o.Budget = 16 * 1024
	sampled.Budget = o.Budget
	for _, fo := range []Options{o, sampled} {
		if p := planOf(t, fo, figure1); p.Simulated != 0 {
			t.Errorf("Figure 1 at another budget or rung: %s, want every cell reused", p.String())
		}
	}
}

// TestXKeyCoversProgramSpec: an x: cell is keyed by its program, not
// its workload's name, so nudging any one leaf of the program spec (the
// leaf walk of corpus.TestKeySoundness) misses the stored cell, and the
// unchanged spec under another name hits it.
func TestXKeyCoversProgramSpec(t *testing.T) {
	base := program.DefaultSpec("probe", 7)
	base.Functions = 6
	o := smallOpts()
	o.UopsPerTrace = 3_000
	o.Store = openStoreT(t, t.TempDir())
	probe := func(name string, spec program.Spec) planner.Report {
		po := o
		po.Workloads = []workload.Workload{{Name: name, Spec: spec}}
		return planOf(t, po, figure1)
	}
	if p := probe("probe", base); p.Simulated != 1 {
		t.Fatalf("base program: %s", p.String())
	}
	if p := probe("alias", base); p.Reused != 1 {
		t.Errorf("same program under another workload name: %s, want reused", p.String())
	}
	muts := corpustest.LeafMutations(t, base)
	if len(muts) < reflect.TypeOf(program.Spec{}).NumField() {
		t.Fatalf("walked %d leaves, fewer than the %d fields", len(muts), reflect.TypeOf(program.Spec{}).NumField())
	}
	for _, m := range muts {
		if p := probe("probe", m.Spec); p.Simulated != 1 {
			t.Errorf("mutating %s: %s, want a miss", m.Field, p.String())
		}
	}
}

// TestServiceSweepServesFigure8: results an in-process xbcd sweep
// persisted serve Figure 8 on the same store (only the uncovered
// workload simulates, with rows equal to a storeless run), and the cells
// the figure computed then serve the daemon.
func TestServiceSweepServesFigure8(t *testing.T) {
	dir := t.TempDir()
	o := smallOpts()
	o.UopsPerTrace = 20_000
	o.Budget = 8 * 1024
	covered := o.Workloads
	all := append(covered[:len(covered):len(covered)], mustWorkload(t, "gcc"))

	// Phase 1: the daemon sweeps XBC x TC over the covered workloads.
	st := openStoreT(t, dir)
	srv := service.New(service.Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	req := api.SweepRequest{Frontends: []string{jobspec.KindXBC, jobspec.KindTC}, Budgets: []int{o.Budget}, Uops: o.UopsPerTrace}
	for _, w := range covered {
		req.Workloads = append(req.Workloads, w.Name)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sw api.SweepResponse
	err = json.NewDecoder(resp.Body).Decode(&sw)
	resp.Body.Close()
	if err != nil || len(sw.Jobs) != 2*len(covered) {
		t.Fatalf("sweep response %+v (%v)", sw, err)
	}
	for _, j := range sw.Jobs {
		waitDone(t, srv, j.ID)
	}
	ts.Close()
	srv.Drain()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: Figure 8 on the daemon's directory.
	want, err := Figure8(Options{UopsPerTrace: o.UopsPerTrace, Budget: o.Budget, Workloads: all, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	fo := o
	fo.Workloads = all
	fo.Store = openStoreT(t, dir)
	tally := &planner.Tally{}
	fo.Plan = tally
	got, err := Figure8(fo)
	if err != nil {
		t.Fatal(err)
	}
	if p := tally.Snapshot(); p.Reused != 2*len(covered) || p.Simulated != 2 {
		t.Errorf("Figure 8 on the sweep's store: %s, want the %d swept cells reused and only gcc's 2 simulated", p.String(), 2*len(covered))
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("rows served from the store %+v, storeless rows %+v", got.Rows, want.Rows)
	}
	if err := fo.Store.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: the daemon serves a cell only the figure computed.
	srv3 := service.New(service.Options{Store: openStoreT(t, dir)})
	defer srv3.Drain()
	if _, status, err := srv3.Submit(jobspec.Spec{Frontend: jobspec.KindTC, Workload: "gcc", Uops: o.UopsPerTrace, Budget: o.Budget}); err != nil || status != api.SubmitCached {
		t.Errorf("daemon submission of a figure-computed cell: status %q (%v), want cached", status, err)
	}
}

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w
}

// waitDone polls the server until job id is done.
func waitDone(t *testing.T, srv *service.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if j, ok := srv.Get(id); ok && j.State() == service.JobDone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
