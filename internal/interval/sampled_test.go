package interval

import (
	"encoding/json"
	"math"
	"testing"

	"xbc/internal/trace"
	"xbc/internal/workload"
)

func TestBoundaries(t *testing.T) {
	w, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	s, err := trace.Generate(w.Spec, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	const ivl = 5_000
	b := Boundaries(recs, ivl)
	if len(b) < 3 {
		t.Fatalf("expected several intervals, got boundaries %v", b)
	}
	if b[0] != 0 || b[len(b)-1] != len(recs) {
		t.Fatalf("boundaries must span [0, len): %d..%d of %d", b[0], b[len(b)-1], len(recs))
	}
	for k := 0; k+1 < len(b); k++ {
		if b[k] >= b[k+1] {
			t.Fatalf("non-increasing boundary at %d: %v", k, b[k:k+2])
		}
		uops := 0
		for i := b[k]; i < b[k+1]; i++ {
			uops += int(recs[i].NumUops)
		}
		// Every interval except the last must reach the target; none can
		// overshoot by more than one record's worth of uops.
		if k+2 < len(b) && uops < ivl {
			t.Fatalf("interval %d holds %d uops, want >= %d", k, uops, ivl)
		}
		if uops > ivl+8 {
			t.Fatalf("interval %d holds %d uops, want < %d", k, uops, ivl+8)
		}
	}
	if got := Boundaries(nil, ivl); len(got) != 1 || got[0] != 0 {
		t.Fatalf("empty stream boundaries = %v", got)
	}
}

func TestFromIntervalsWeighting(t *testing.T) {
	a := Estimate{UopsPerCycle: 4, InstsPerCycle: 2, BaseCPKu: 200, TotalCPKu: 250}
	b := Estimate{UopsPerCycle: 2, InstsPerCycle: 1, BaseCPKu: 400, TotalCPKu: 500}
	// All weight on a: the combination IS a.
	only, err := FromIntervals([]IntervalSample{{Est: a, Weight: 10}, {Est: b, Weight: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(only.TotalCPKu-a.TotalCPKu) > 1e-12 || math.Abs(only.UopsPerCycle-4) > 1e-12 {
		t.Fatalf("single-sample combination diverged: %+v", only)
	}
	if only.ipcVariance != 0 {
		t.Fatalf("single sample must have zero variance, got %g", only.ipcVariance)
	}
	// Even split: budgets average, throughput re-derives, variance > 0.
	mix, err := FromIntervals([]IntervalSample{{Est: a, Weight: 1}, {Est: b, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if want := (250.0 + 500.0) / 2; math.Abs(mix.TotalCPKu-want) > 1e-12 {
		t.Fatalf("TotalCPKu = %g, want %g", mix.TotalCPKu, want)
	}
	if want := 1000 / mix.TotalCPKu; math.Abs(mix.UopsPerCycle-want) > 1e-12 {
		t.Fatalf("UopsPerCycle = %g, want %g", mix.UopsPerCycle, want)
	}
	if mix.ipcVariance <= 0 || mix.IPCStdDev() <= 0 {
		t.Fatalf("mixed samples must have positive variance, got %g", mix.ipcVariance)
	}
	if _, err := FromIntervals(nil); err == nil {
		t.Fatal("empty sample set must error")
	}
	if _, err := FromIntervals([]IntervalSample{{Est: a, Weight: -1}}); err == nil {
		t.Fatal("negative weight must error")
	}
}

// The serialized shape must not change with the variance field: sampled
// and full estimates marshal to the same keys, so stored results stay
// comparable across fidelities.
func TestEstimateJSONShapeUnchanged(t *testing.T) {
	est, err := FromIntervals([]IntervalSample{
		{Est: Estimate{UopsPerCycle: 4, InstsPerCycle: 2, TotalCPKu: 250}, Weight: 1},
		{Est: Estimate{UopsPerCycle: 2, InstsPerCycle: 1, TotalCPKu: 500}, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{"UopsPerCycle", "InstsPerCycle", "BaseCPKu", "BranchCPKu", "SupplyCPKu", "TotalCPKu"}
	if len(m) != len(want) {
		t.Fatalf("estimate marshals %d keys %v, want %d", len(m), m, len(want))
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Fatalf("missing key %q in %v", k, m)
		}
	}
}
