package xbc_test

import (
	"bytes"
	"testing"

	"xbc"
)

// TestQuickstart exercises the README's quickstart flow end to end.
func TestQuickstart(t *testing.T) {
	w, ok := xbc.WorkloadByName("gcc")
	if !ok {
		t.Fatal("gcc workload missing")
	}
	stream, err := xbc.Generate(w, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	fe := xbc.NewXBCFrontend(32 * 1024)
	m := xbc.Run(fe, stream)
	if m.Uops != stream.Uops() {
		t.Fatalf("uops consumed %d != stream %d", m.Uops, stream.Uops())
	}
	if m.UopMissRate() < 0 || m.UopMissRate() > 100 {
		t.Fatalf("miss rate %v", m.UopMissRate())
	}
	if m.Bandwidth() <= 0 || m.Bandwidth() > 8 {
		t.Fatalf("bandwidth %v", m.Bandwidth())
	}
}

func TestAllFrontendConstructors(t *testing.T) {
	w, _ := xbc.WorkloadByName("doom")
	stream, err := xbc.Generate(w, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	frontends := []xbc.Frontend{
		xbc.NewICFrontend(),
		xbc.NewDecodedFrontend(16 * 1024),
		xbc.NewTraceCacheFrontend(16 * 1024),
		xbc.NewBBTCFrontend(16 * 1024),
		xbc.NewXBCFrontend(16 * 1024),
		xbc.NewXBCFrontendWith(xbc.DefaultXBCConfig(16*1024), xbc.DefaultFrontendConfig()),
		xbc.NewTraceCacheFrontendWith(xbc.DefaultTCConfig(16*1024), xbc.DefaultFrontendConfig()),
	}
	names := map[string]bool{}
	for _, fe := range frontends {
		m := xbc.Run(fe, stream)
		if m.Uops != stream.Uops() {
			t.Errorf("%s: consumed %d of %d uops", fe.Name(), m.Uops, stream.Uops())
		}
		names[fe.Name()] = true
	}
	for _, want := range []string{"ic", "decoded", "tc", "bbtc", "xbc"} {
		if !names[want] {
			t.Errorf("frontend %q missing", want)
		}
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	w, _ := xbc.WorkloadByName("word")
	s, err := xbc.Generate(w, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := xbc.WriteTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := xbc.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip lost records: %d vs %d", got.Len(), s.Len())
	}
}

func TestCustomSpec(t *testing.T) {
	spec := xbc.DefaultProgramSpec("custom", 99)
	spec.Functions = 30
	s, err := xbc.GenerateSpec(spec, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	bias := xbc.MeasureBias(s)
	h := xbc.SegmentLengths(s, xbc.XBPromoted, bias)
	if h.Total() == 0 {
		t.Fatal("segmentation empty")
	}
}

func TestWorkloadList(t *testing.T) {
	if len(xbc.Workloads()) != 21 || len(xbc.WorkloadNames()) != 21 {
		t.Fatal("workload list wrong")
	}
}

func TestExperimentFacadeSmoke(t *testing.T) {
	o := xbc.DefaultExperimentOptions()
	o.UopsPerTrace = 50_000
	w1, _ := xbc.WorkloadByName("li")
	o.Workloads = []xbc.Workload{w1}
	o.Sizes = []int{4 * 1024, 16 * 1024}
	r, err := xbc.Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AvgXBC) != 2 {
		t.Fatalf("points = %d", len(r.AvgXBC))
	}
}

func TestMultiPortedICFacade(t *testing.T) {
	w, _ := xbc.WorkloadByName("hexen")
	s, err := xbc.Generate(w, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	fe := xbc.NewMultiPortedICFrontend(2)
	m := xbc.Run(fe, s)
	if m.Uops != s.Uops() {
		t.Fatal("conservation broken")
	}
	if fe.Name() != "ic:2port" {
		t.Fatalf("name %q", fe.Name())
	}
}

func TestPhasesFacade(t *testing.T) {
	w, _ := xbc.WorkloadByName("go")
	s, err := xbc.Generate(w, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	m := xbc.Run(xbc.NewXBCFrontend(16*1024), s)
	p := m.Phases()
	sum := p.SteadyPct + p.TransitionPct + p.StallPct
	if sum < 99 || sum > 101 {
		t.Fatalf("phases sum %.2f", sum)
	}
}
