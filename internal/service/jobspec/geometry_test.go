package jobspec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/program"
	"xbc/internal/sampling"
	"xbc/internal/trace"
	"xbc/internal/workload"
	"xbc/internal/xbcore"
)

// TestGeometryNormalizes: a geometry of paper values, or of leaves the
// kind does not have, is no geometry, so its cells are the cells of the
// figures that set none; a leaf that applies survives.
func TestGeometryNormalizes(t *testing.T) {
	paper := &Geometry{Ways: 2, XBTBEntries: 8192, RenamerWidth: 8}
	for _, c := range []struct {
		spec Spec
		want *Geometry
	}{
		{Spec{Frontend: KindXBC, Geometry: paper}, nil},
		{Spec{Frontend: KindTC, Geometry: &Geometry{Ways: 4, XBTBEntries: 1024, Variant: "no-promotion"}}, nil},
		{Spec{Frontend: KindIC, Geometry: &Geometry{Ways: 1, Variant: VariantPathAssoc}}, nil},
		{Spec{Frontend: KindXBC, Geometry: &Geometry{}}, nil},
		{Spec{Frontend: KindTC, Geometry: paper}, &Geometry{Ways: 2}},
		{Spec{Frontend: KindBBTC, Geometry: &Geometry{Ways: 1, RenamerWidth: 16}}, &Geometry{RenamerWidth: 16}},
		{Spec{Frontend: KindXBC, Geometry: &Geometry{Variant: "bogus"}}, &Geometry{Variant: "bogus"}},
	} {
		c.spec.Workload = "gcc"
		n := c.spec.Normalize()
		if !reflect.DeepEqual(n.Geometry, c.want) {
			t.Errorf("%s %+v normalizes to %+v, want %+v", c.spec.Frontend, *c.spec.Geometry, n.Geometry, c.want)
		}
		if c.want != nil {
			continue
		}
		bare := c.spec
		bare.Geometry = nil
		got, err := c.spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := bare.Key(); got != want {
			t.Errorf("%s %+v keys apart from the spec without a geometry", c.spec.Frontend, *c.spec.Geometry)
		}
	}
}

func TestGeometryValidateRejects(t *testing.T) {
	for _, c := range []struct {
		geo  Geometry
		want string
	}{
		{Geometry{Ways: -1}, "ways"},
		{Geometry{Ways: maxWays + 1}, "ways"},
		{Geometry{XBTBEntries: 1000}, "xbtb_entries"},
		{Geometry{XBTBEntries: 2}, "xbtb_entries"},
		{Geometry{XBTBEntries: 2 * maxXBTBEntries}, "xbtb_entries"},
		{Geometry{RenamerWidth: -8}, "renamer_width"},
		{Geometry{RenamerWidth: maxRenamerWidth + 1}, "renamer_width"},
		{Geometry{Variant: "no promotion"}, "unknown geometry variant"},
	} {
		g := c.geo
		err := Spec{Frontend: KindXBC, Workload: "gcc", Geometry: &g}.Normalize().Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want one naming %q", c.geo, err, c.want)
		}
		if _, err := (Spec{Frontend: KindXBC, Geometry: &g}).NewFrontend(); err == nil {
			t.Errorf("%+v: NewFrontend built a model", c.geo)
		}
	}
}

// TestGeometryPropertyBuildsAndRuns: any geometry that passes Validate,
// at any budget that passes, builds every frontend kind and runs 1k uops
// without a panic. The leaves are drawn around and across their bounds.
func TestGeometryPropertyBuildsAndRuns(t *testing.T) {
	prog := program.DefaultSpec("probe", 5)
	prog.Functions = 8
	st, err := trace.Generate(prog, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ways := []int{-1, 0, 1, 2, 3, 4, 5, 8, maxWays, maxWays + 1}
	xbtb := []int{-4, 0, 1, 2, 4, 8, 1000, 1024, 8192, maxXBTBEntries, 2 * maxXBTBEntries}
	renamer := []int{-1, 0, 1, 3, 8, 13, maxRenamerWidth, maxRenamerWidth + 1}
	variants := append(Variants(), "", "bogus")
	budgets := []int{512, MinBudget, 3000, 4096, DefaultBudget, 64 * 1024}
	rng := rand.New(rand.NewSource(1))
	valid := 0
	for i := 0; i < 300; i++ {
		g := Geometry{
			Ways:         ways[rng.Intn(len(ways))],
			XBTBEntries:  xbtb[rng.Intn(len(xbtb))],
			RenamerWidth: renamer[rng.Intn(len(renamer))],
			Variant:      variants[rng.Intn(len(variants))],
		}
		budget := budgets[rng.Intn(len(budgets))]
		for _, kind := range Kinds() {
			s := Spec{Frontend: kind, Program: &prog, Uops: 1000, Budget: budget, Geometry: &g}
			if s.Normalize().Validate() != nil {
				continue
			}
			valid++
			fe, err := s.NewFrontend()
			if err != nil {
				t.Fatalf("%s at %d uops, %+v: validated, yet %v", kind, budget, g, err)
			}
			if m, err := frontend.RunSafe(fe, st); err != nil || m.Uops == 0 {
				t.Fatalf("%s at %d uops, %+v: %v (%d uops run)", kind, budget, g, err, m.Uops)
			}
		}
	}
	if valid < 300 {
		t.Fatalf("only %d valid draws; the property is barely exercised", valid)
	}
}

// TestGeometrySampledUsesRenamerWidth: the sampled rung finalizes its
// extrapolated metrics with the geometry's renamer width, as a directly
// built model run through sampling.Run does.
func TestGeometrySampledUsesRenamerWidth(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	s := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 150_000, Budget: 8192, Fidelity: FidelitySampled,
		Geometry: &Geometry{RenamerWidth: 16}}
	got, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.Generate(gcc.Spec, s.Uops)
	if err != nil {
		t.Fatal(err)
	}
	fe := frontend.DefaultConfig()
	fe.RenamerWidth = 16
	want, err := sampling.Run(xbcore.New(xbcore.DefaultConfig(s.Budget), fe), st.Records(), fe, SamplingConfig(s.Fidelity))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Metrics, want.Metrics) {
		t.Errorf("sampled bandwidth %.4f, sampling.Run %.4f", got.Metrics.Bandwidth(), want.Metrics.Bandwidth())
	}
}
