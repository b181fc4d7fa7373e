package sampling

import (
	"math"
	"reflect"
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/trace"
	"xbc/internal/workload"
	"xbc/internal/xbcore"
)

func genRecs(t *testing.T, name string, uops int) []trace.Rec {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	s, err := trace.Generate(w.Spec, uint64(uops))
	if err != nil {
		t.Fatal(err)
	}
	return s.Records()
}

func newXBC() frontend.Frontend {
	return xbcore.New(xbcore.DefaultConfig(32*1024), frontend.DefaultConfig())
}

func TestKCenterDeterministic(t *testing.T) {
	recs := genRecs(t, "gcc", 300_000)
	bounds := []int{}
	for i := 0; i+10_000 <= len(recs); i += 10_000 {
		bounds = append(bounds, i)
	}
	feats := make([][featureDim]float64, len(bounds)-1)
	for k := 0; k+1 < len(bounds); k++ {
		feats[k] = featureVector(recs, bounds[k], bounds[k+1])
	}
	a, b := kCenter(feats, 4), kCenter(feats, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("k-center not deterministic: %v vs %v", a, b)
	}
	if len(a) == 0 || a[0] != 0 {
		t.Fatalf("interval 0 must seed the representatives, got %v", a)
	}
	seen := map[int]bool{}
	for _, r := range a {
		if seen[r] {
			t.Fatalf("duplicate representative %d in %v", r, a)
		}
		seen[r] = true
	}
	if asg := assign(feats, a); len(asg) != len(feats) {
		t.Fatalf("assignment covers %d of %d intervals", len(asg), len(feats))
	} else {
		for i, c := range asg {
			if c < 0 || c >= len(a) {
				t.Fatalf("interval %d assigned to cluster %d of %d", i, c, len(a))
			}
		}
		for c, r := range a {
			if asg[r] != c {
				t.Fatalf("representative %d not assigned to its own cluster: %d", r, asg[r])
			}
		}
	}
}

func TestRunDeterministicAndCheap(t *testing.T) {
	recs := genRecs(t, "gcc", 400_000)
	cfg := DefaultConfig()
	a, err := Run(newXBC(), recs, frontend.DefaultConfig(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(newXBC(), recs, frontend.DefaultConfig(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled run not deterministic:\n%+v\n%+v", a, b)
	}
	total := uopsIn(recs, 0, len(recs))
	if a.Metrics.Uops != total {
		t.Fatalf("extrapolated Uops %d, exact %d", a.Metrics.Uops, total)
	}
	if a.Metrics.Insts != uint64(len(recs)) {
		t.Fatalf("extrapolated Insts %d, exact %d", a.Metrics.Insts, len(recs))
	}
	// The whole point: detailed simulation covers a small fraction. At
	// 400k uops with 20k intervals and 4 clusters the detailed share is
	// ~20%; the reference 1M-uop sweep gate asserts <=10%.
	if frac := float64(a.SimulatedUops) / float64(total); frac > 0.30 {
		t.Fatalf("simulated %d of %d uops (%.0f%%)", a.SimulatedUops, total, 100*frac)
	}
	if a.ErrorBound["ipc"] <= 0 || a.ErrorBound["uop_miss_rate"] <= 0 {
		t.Fatalf("sampled run must advertise positive bounds: %v", a.ErrorBound)
	}
	if a.Representatives < 2 || a.Intervals < a.Representatives {
		t.Fatalf("clustering shape: %d reps of %d intervals", a.Representatives, a.Intervals)
	}
}

func TestRunAccuracyWithinBound(t *testing.T) {
	for _, name := range []string{"gcc", "word", "doom"} {
		recs := genRecs(t, name, 400_000)
		full := frontend.Run(newXBC(), &trace.Stream{Recs: recs})
		got, err := Run(newXBC(), recs, frontend.DefaultConfig(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ipcErr := math.Abs(got.Metrics.OverallBandwidth() - full.OverallBandwidth())
		if ipcErr > got.ErrorBound["ipc"] {
			t.Errorf("%s: ipc error %.4f exceeds bound %.4f (full %.4f sampled %.4f)",
				name, ipcErr, got.ErrorBound["ipc"], full.OverallBandwidth(), got.Metrics.OverallBandwidth())
		}
		missErr := math.Abs(got.Metrics.UopMissRate() - full.UopMissRate())
		if missErr > got.ErrorBound["uop_miss_rate"] {
			t.Errorf("%s: miss-rate error %.4f exceeds bound %.4f", name, missErr, got.ErrorBound["uop_miss_rate"])
		}
	}
}

// TestRunAnalyzedRejectsForeignAnalysis: an analysis made for another
// stream, or an empty one, is an error, never a silently wrong
// extrapolation.
func TestRunAnalyzedRejectsForeignAnalysis(t *testing.T) {
	gcc, word := genRecs(t, "gcc", 200_000), genRecs(t, "word", 200_000)
	if len(gcc) == len(word) {
		t.Fatalf("streams must differ in length for this check: both %d records", len(gcc))
	}
	cfg := DefaultConfig()
	a, err := Analyze(gcc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAnalyzed(newXBC(), word, frontend.DefaultConfig(), cfg, a); err == nil {
		t.Fatal("RunAnalyzed accepted gcc's analysis for word's stream")
	}
	if _, err := RunAnalyzed(newXBC(), gcc, frontend.DefaultConfig(), cfg, Analysis{}); err == nil {
		t.Fatal("RunAnalyzed accepted an empty analysis")
	}
	if _, err := RunAnalyzed(newXBC(), gcc, frontend.DefaultConfig(), cfg, a); err != nil {
		t.Fatalf("RunAnalyzed rejected the stream's own analysis: %v", err)
	}
}

func TestRunShortStreamIsExact(t *testing.T) {
	recs := genRecs(t, "gcc", 30_000)
	full := frontend.Run(newXBC(), &trace.Stream{Recs: recs})
	got, err := Run(newXBC(), recs, frontend.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Metrics, full) {
		t.Fatalf("short stream must fall back to exact full run")
	}
	if got.ErrorBound["ipc"] != 0 {
		t.Fatalf("exact fallback must advertise zero bound, got %v", got.ErrorBound)
	}
}
