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

func figure1(o Options) error   { _, err := Figure1(o); return err }
func figure8(o Options) error   { _, err := Figure8(o); return err }
func figure10(o Options) error  { _, err := Figure10(o); return err }
func ctxSwitch(o Options) error { _, err := ContextSwitch(o); return err }
func pathAssoc(o Options) error { _, err := PathAssociativity(o); return err }
func ablation(o Options) error  { _, err := Ablation(o); return err }
func xbtb(o Options) error      { _, err := XBTBSweep(o); return err }
func renamer(o Options) error   { _, err := RenamerSweep(o); return err }

// TestXKeysCarryOnlyWhatCellsRead: a cell's store key holds the inputs
// the cell reads and nothing else. The extra studies always run in full,
// so a sampled context-switch run serves a full one; Figure 1 reads
// neither budget nor rung.
func TestXKeysCarryOnlyWhatCellsRead(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 20_000
	o.Store = openStoreT(t, t.TempDir())

	sampled := o
	sampled.Fidelity = jobspec.FidelitySampled
	pairs := 3
	if p := planOf(t, sampled, ctxSwitch); p.Simulated != pairs {
		t.Fatalf("sampled ctxswitch: %s", p.String())
	}
	if p := planOf(t, o, ctxSwitch); p.Simulated != 0 || p.Reused != pairs {
		t.Errorf("full ctxswitch after a sampled run: %s, want every cell reused", p.String())
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

// TestGeometryCellsAreSpecCells: the geometry studies' cells are job
// specs, one model each. A study cell at the paper's geometry is the
// cell Figure 8 or another study already ran, and a rung the cell does
// not read does not split it: the studies run in full, so a sampled run
// serves a full one, while Figure 10 reads the rung.
func TestGeometryCellsAreSpecCells(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 20_000
	o.Assocs = []int{1, 2, 4}
	o.Store = openStoreT(t, t.TempDir())
	sampled := o
	sampled.Fidelity = jobspec.FidelitySampled
	n := len(o.Workloads)
	for _, c := range []struct {
		name              string
		o                 Options
		fig               func(Options) error
		simulated, reused int
	}{
		{"Figure 8", o, figure8, 2 * n, 0},
		{"Figure 10: 2-way XBC and 4-way TC are Figure 8's", o, figure10, 4 * n, 2 * n},
		{"sampled Figure 10 reads the rung", sampled, figure10, 6 * n, 0},
		{"sampled pathassoc: plain TC and XBC are Figure 8's", sampled, pathAssoc, n, 2 * n},
		{"full pathassoc after a sampled run", o, pathAssoc, 0, 3 * n},
		{"ablation: the baseline is Figure 8's XBC", o, ablation, 13 * n, n},
		{"xbtb: 8192 entries is Figure 8's XBC", o, xbtb, 4 * n, n},
		{"renamer: width 8 is Figure 8's pair and the 1-XB/cycle ablation", o, renamer, 9 * n, 3 * n},
	} {
		if p := planOf(t, c.o, c.fig); p.Simulated != c.simulated || p.Reused != c.reused {
			t.Errorf("%s: %s, want %d simulated and %d reused", c.name, p.String(), c.simulated, c.reused)
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
	muts := corpustest.LeafMutations(t, base, func(s program.Spec) bool { return s.Validate() == nil }, nil)
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

// TestStorelessRunReusesAcrossFigures: without a Store, the figures of
// one run share cells through the Plan tally's memo. Figure 9 at Figure
// 8's budget then simulates nothing, and its values equal those of a run
// with no tally at all.
func TestStorelessRunReusesAcrossFigures(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 20_000
	o.Sizes = []int{o.Budget}
	want, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	tally := &planner.Tally{}
	o.Plan = tally
	if _, err := Figure8(o); err != nil {
		t.Fatal(err)
	}
	got, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if p := tally.Snapshot(); p.Simulated != 4 || p.Reused != 4 {
		t.Errorf("plan %s, want Figure 8's 4 cells simulated and reused by Figure 9", p.String())
	}
	if !reflect.DeepEqual(got.MissXBC, want.MissXBC) || !reflect.DeepEqual(got.MissTC, want.MissTC) {
		t.Errorf("memo-served Figure 9 %v/%v, fresh %v/%v", got.MissXBC, got.MissTC, want.MissXBC, want.MissTC)
	}
}
