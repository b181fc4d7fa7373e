package jobspec

import (
	"math"
	"reflect"
	"testing"

	"xbc/internal/corpus"
	"xbc/internal/frontend"
	"xbc/internal/sampling"
	"xbc/internal/snapshot"
	"xbc/internal/workload"
)

func TestFidelityNormalizeAndKeys(t *testing.T) {
	base := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 100_000}
	full := base
	full.Fidelity = FidelityFull
	kBase, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	kFull, err := full.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kBase != kFull {
		t.Fatal("explicit full fidelity must key like the pre-ladder default")
	}
	sampled := base
	sampled.Fidelity = FidelitySampled
	kSampled, err := sampled.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kSampled == kBase {
		t.Fatal("sampled fidelity must key differently from full")
	}
	checked := sampled
	checked.Check = true
	kChecked, err := checked.Key()
	if err != nil {
		t.Fatal(err)
	}
	if n := checked.Normalize(); n.Fidelity != "" {
		t.Fatalf("check must force full fidelity, got %q", n.Fidelity)
	}
	if kChecked == kSampled {
		t.Fatal("checked spec must not share the sampled key")
	}
	bad := base
	bad.Fidelity = "fast"
	if err := bad.Normalize().Validate(); err == nil {
		t.Fatal("unknown fidelity must fail validation")
	}
}

func TestSnapshotKeySharing(t *testing.T) {
	long := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 1_000_000}
	short := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 300_000}
	kl, err := long.SnapshotKey()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := short.SnapshotKey()
	if err != nil {
		t.Fatal(err)
	}
	// Both are past twice the warmup cap, so they capture the same prefix
	// state and must share it.
	if kl != ks {
		t.Fatal("runs differing only in length past the warmup cap must share snapshots")
	}
	tiny := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 50_000}
	kt, err := tiny.SnapshotKey()
	if err != nil {
		t.Fatal(err)
	}
	if kt == kl {
		t.Fatal("a short run warms less; it must not share the long run's snapshot")
	}
	otherBudget := long
	otherBudget.Budget = 16 * 1024
	kb, err := otherBudget.SnapshotKey()
	if err != nil {
		t.Fatal(err)
	}
	if kb == kl {
		t.Fatal("budget shapes the cache geometry; it must split snapshot keys")
	}
	sampledVariant := long
	sampledVariant.Fidelity = FidelitySampled
	kf, err := sampledVariant.SnapshotKey()
	if err != nil {
		t.Fatal(err)
	}
	if kf != kl {
		t.Fatal("fidelity does not shape warm state; it must not split snapshot keys")
	}
}

// TestExecuteSnapshotRoundTrip is the warm-state snapshot contract: a run
// that captures a snapshot and a run that restores it both produce metrics
// bit-identical to a snapshot-free run, and the restore actually hits.
func TestExecuteSnapshotRoundTrip(t *testing.T) {
	specA := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 300_000}
	specB := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 240_000} // same warmup cap: shares the snapshot
	SetSnapshotManager(nil)
	coldA, err := Execute(specA)
	if err != nil {
		t.Fatal(err)
	}
	coldB, err := Execute(specB)
	if err != nil {
		t.Fatal(err)
	}
	if coldA.SnapshotHit || coldB.SnapshotHit {
		t.Fatal("no manager attached; nothing can hit")
	}

	mgr := snapshot.NewManager(8, nil)
	SetSnapshotManager(mgr)
	defer SetSnapshotManager(nil)

	warmA, err := Execute(specA)
	if err != nil {
		t.Fatal(err)
	}
	if warmA.SnapshotHit {
		t.Fatal("first managed run cannot hit a snapshot that does not exist")
	}
	if !reflect.DeepEqual(warmA.Metrics, coldA.Metrics) {
		t.Fatal("capturing a snapshot must not change the metrics")
	}
	if st := mgr.Stats(); st.Saves < 1 {
		t.Fatalf("first managed run must capture a snapshot, stats %+v", st)
	}

	warmB, err := Execute(specB)
	if err != nil {
		t.Fatal(err)
	}
	if !warmB.SnapshotHit {
		t.Fatal("second run shares the snapshot key and must hit")
	}
	if !reflect.DeepEqual(warmB.Metrics, coldB.Metrics) {
		t.Fatal("a snapshot-restored run must be bit-identical to a cold run")
	}
	if st := mgr.Stats(); st.Hits < 1 {
		t.Fatalf("expected a recorded hit, stats %+v", st)
	}
}

// TestRestoreSessionRefusesTrailingBytes: a sealed payload that decodes
// to a state but does not end there (a blob of a format whose shape moved
// without a version bump, say) is refused rather than restored.
func TestRestoreSessionRefusesTrailingBytes(t *testing.T) {
	n := Spec{Frontend: KindTC, Workload: "gcc", Uops: 60_000}.Normalize()
	st, err := corpus.Stream(*n.Program, n.Uops)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := n.NewFrontend()
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := saveWarm(fe.NewSession(), st.Recs, n.Uops)
	if !ok {
		t.Fatal("no warm state inside the run")
	}
	if restoreSession(fe, blob, len(st.Recs)) == nil {
		t.Fatal("the saved blob does not restore")
	}
	payload, err := snapshot.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if restoreSession(fe, snapshot.Seal(append(payload[:len(payload):len(payload)], 0)), len(st.Recs)) != nil {
		t.Fatal("a payload with a trailing byte restored")
	}
}

// TestExecuteCheckedBypassesSnapshots: a checked run takes the same
// session path as every full run, with the snapshot manager detached, so
// the checker observes the whole run. An attached manager must see no
// load and no save, and the metrics must equal the same spec run
// unchecked without a manager.
func TestExecuteCheckedBypassesSnapshots(t *testing.T) {
	spec := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 200_000}
	SetSnapshotManager(nil)
	plain, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}

	mgr := snapshot.NewManager(8, nil)
	SetSnapshotManager(mgr)
	defer SetSnapshotManager(nil)
	checkedSpec := spec
	checkedSpec.Check = true
	checked, err := Execute(checkedSpec)
	if err != nil {
		t.Fatalf("checked run on a clean stream: %v", err)
	}
	if st := mgr.Stats(); st != (snapshot.Stats{}) {
		t.Fatalf("checked run touched the snapshot manager: %+v", st)
	}
	if checked.SnapshotHit {
		t.Fatal("checked run reports a snapshot hit")
	}
	if !reflect.DeepEqual(checked.Metrics, plain.Metrics) {
		t.Fatalf("checked metrics differ from the unchecked run:\nchecked %+v\nplain   %+v", checked.Metrics, plain.Metrics)
	}
}

// TestSampledAnalysisKeyedByStream: the process-wide analysis memo must
// key by the stream's content, never by the workload name, which is empty
// for inline programs and only a label beside a custom one. Every sampled
// Execute must equal an uncached sampling.Run over the same stream.
func TestSampledAnalysisKeyedByStream(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	word, _ := workload.ByName("word")
	const uops = 200_000
	for _, tc := range []struct {
		name  string
		specs []Spec
	}{
		{"inline_programs", []Spec{
			{Frontend: KindXBC, Program: &gcc.Spec, Uops: uops, Fidelity: FidelitySampled},
			{Frontend: KindXBC, Program: &word.Spec, Uops: uops, Fidelity: FidelitySampled},
		}},
		{"name_beside_program", []Spec{
			{Frontend: KindXBC, Workload: "gcc", Uops: uops, Fidelity: FidelitySampled},
			{Frontend: KindXBC, Workload: "gcc", Program: &word.Spec, Uops: uops, Fidelity: FidelitySampled},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, s := range tc.specs {
				got, err := Execute(s)
				if err != nil {
					t.Fatalf("spec %d: %v", i, err)
				}
				n := s.Normalize()
				stream, err := corpus.Stream(*n.Program, n.Uops)
				if err != nil {
					t.Fatal(err)
				}
				fe, err := n.NewFrontend()
				if err != nil {
					t.Fatal(err)
				}
				want, err := sampling.Run(fe, stream.Records(), frontend.DefaultConfig(), SamplingConfig(n.Fidelity))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Metrics, want.Metrics) {
					t.Fatalf("spec %d (%s): uop miss rate %.3f%%, uncached sampling.Run %.3f%%",
						i, s.Label(), got.Metrics.UopMissRate(), want.Metrics.UopMissRate())
				}
			}
		})
	}
}

// TestFidelityErrorBoundHarness is the 21-workload ground-truth harness:
// for every paper workload, the sampled and estimate rungs must land
// within their advertised error bounds against the full run, and the mean
// absolute errors must sit within the mean advertised bounds.
func TestFidelityErrorBoundHarness(t *testing.T) {
	names := workload.Names()
	if testing.Short() {
		names = names[:5]
	}
	const uops = 400_000
	type accum struct{ ipcErr, ipcBound, missErr, missBound float64 }
	sums := map[string]*accum{FidelitySampled: {}, FidelityEstimate: {}}
	for _, name := range names {
		full, err := Execute(Spec{Frontend: KindXBC, Workload: name, Uops: uops})
		if err != nil {
			t.Fatalf("%s: full: %v", name, err)
		}
		for _, fid := range []string{FidelitySampled, FidelityEstimate} {
			got, err := Execute(Spec{Frontend: KindXBC, Workload: name, Uops: uops, Fidelity: fid})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, fid, err)
			}
			if got.Fidelity != fid {
				t.Fatalf("%s/%s: result marked %q", name, fid, got.Fidelity)
			}
			if got.SampledUops == 0 || got.SampledUops >= full.Metrics.Uops {
				t.Fatalf("%s/%s: sampled %d of %d uops", name, fid, got.SampledUops, full.Metrics.Uops)
			}
			ipcErr := math.Abs(got.Metrics.OverallBandwidth() - full.Metrics.OverallBandwidth())
			missErr := math.Abs(got.Metrics.UopMissRate() - full.Metrics.UopMissRate())
			ipcBound, missBound := got.ErrorBound["ipc"], got.ErrorBound["uop_miss_rate"]
			if ipcBound <= 0 || missBound <= 0 {
				t.Fatalf("%s/%s: bounds must be positive: %v", name, fid, got.ErrorBound)
			}
			if ipcErr > ipcBound {
				t.Errorf("%s/%s: ipc error %.4f exceeds bound %.4f (full %.4f got %.4f)",
					name, fid, ipcErr, ipcBound, full.Metrics.OverallBandwidth(), got.Metrics.OverallBandwidth())
			}
			if missErr > missBound {
				t.Errorf("%s/%s: miss-rate error %.4f exceeds bound %.4f (full %.4f got %.4f)",
					name, fid, missErr, missBound, full.Metrics.UopMissRate(), got.Metrics.UopMissRate())
			}
			a := sums[fid]
			a.ipcErr += ipcErr
			a.ipcBound += ipcBound
			a.missErr += missErr
			a.missBound += missBound
		}
	}
	n := float64(len(names))
	for fid, a := range sums {
		t.Logf("%s: mean |ipc err| %.4f (mean bound %.4f), mean |miss err| %.4f pp (mean bound %.4f)",
			fid, a.ipcErr/n, a.ipcBound/n, a.missErr/n, a.missBound/n)
		if a.ipcErr > a.ipcBound || a.missErr > a.missBound {
			t.Errorf("%s: mean error outside mean advertised bound", fid)
		}
	}
}

// TestFidelityWorkCounts holds the deterministic gate of the fidelity
// benchmark (simuops/op in BENCH_PR9.json) as exact counts: the gcc,
// 1M-uop, 32K XBC cell simulates every uop at full, 80013 when sampled
// and 40006 at estimate — both well under the 10% the sampled rung is
// allowed.
func TestFidelityWorkCounts(t *testing.T) {
	for _, tc := range []struct {
		fidelity string
		want     uint64
	}{
		{FidelityFull, 1_000_000},
		{FidelitySampled, 80_013},
		{FidelityEstimate, 40_006},
	} {
		res, err := Execute(Spec{Frontend: KindXBC, Workload: "gcc", Uops: DefaultUops, Budget: DefaultBudget, Fidelity: tc.fidelity})
		if err != nil {
			t.Fatalf("%s: %v", tc.fidelity, err)
		}
		sim := res.SampledUops
		if res.EffectiveFidelity() == FidelityFull {
			sim = res.Metrics.Uops
		}
		if sim != tc.want {
			t.Errorf("%s: simulated %d uops, want exactly %d", tc.fidelity, sim, tc.want)
		}
	}
}
