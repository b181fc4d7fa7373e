package xbc_test

import (
	"fmt"
	"testing"

	"xbc"
)

// TestFaultMatrix drives every frontend model over every fault-injected
// stream variant through RunSafe. The acceptance bar is simple: no fault
// may escape as a panic. A model may return an error (the checked XBC
// reports invariant violations, and hostile streams can be rejected) or
// degraded metrics, but the process must survive all of it.
func TestFaultMatrix(t *testing.T) {
	w, ok := xbc.WorkloadByName("gcc")
	if !ok {
		t.Fatal("gcc workload missing")
	}
	base, err := xbc.Generate(w, 150_000)
	if err != nil {
		t.Fatal(err)
	}

	faults := []struct {
		name string
		make func() *xbc.Stream
	}{
		{"truncated-1rec", func() *xbc.Stream { return xbc.TruncateStream(base, 1) }},
		{"truncated-half", func() *xbc.Stream { return xbc.TruncateStream(base, base.Len()/2) }},
		{"bitflip-1pct", func() *xbc.Stream { return xbc.BitFlipStream(base, 42, 0.01) }},
		{"bitflip-20pct", func() *xbc.Stream { return xbc.BitFlipStream(base, 7, 0.20) }},
		{"discontinuous-7", func() *xbc.Stream { return xbc.DiscontinuousStream(base, 7) }},
		{"discontinuous-2", func() *xbc.Stream { return xbc.DiscontinuousStream(base, 2) }},
	}
	frontends := []struct {
		name string
		make func() xbc.Frontend
	}{
		{"ic", xbc.NewICFrontend},
		{"decoded", func() xbc.Frontend { return xbc.NewDecodedFrontend(8 * 1024) }},
		{"tc", func() xbc.Frontend { return xbc.NewTraceCacheFrontend(8 * 1024) }},
		{"bbtc", func() xbc.Frontend { return xbc.NewBBTCFrontend(8 * 1024) }},
		{"xbc", func() xbc.Frontend { return xbc.NewXBCFrontend(8 * 1024) }},
		{"xbc-checked", func() xbc.Frontend { return xbc.NewCheckedXBCFrontend(8 * 1024) }},
	}

	for _, fault := range faults {
		for _, fe := range frontends {
			t.Run(fmt.Sprintf("%s/%s", fault.name, fe.name), func(t *testing.T) {
				s := fault.make()
				// RunSafe must contain the damage: an error is acceptable,
				// a panic escaping to this goroutine is not (the test
				// binary would crash, which is itself the failure signal).
				m, err := xbc.RunSafe(fe.make(), s)
				if err != nil {
					t.Logf("contained: %v", err)
					return
				}
				if m.Uops > 0 && m.Bandwidth() < 0 {
					t.Errorf("negative bandwidth from faulted stream: %v", m.Bandwidth())
				}
			})
		}
	}
}

// TestCheckedXBCCleanOnHealthyStream pins the other side of the checker
// contract at the facade level: a healthy stream must run with zero
// violations and metrics identical to the unchecked frontend.
func TestCheckedXBCCleanOnHealthyStream(t *testing.T) {
	w, ok := xbc.WorkloadByName("doom")
	if !ok {
		t.Fatal("doom workload missing")
	}
	s, err := xbc.Generate(w, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := xbc.RunSafe(xbc.NewCheckedXBCFrontend(8*1024), s)
	if err != nil {
		t.Fatalf("checker flagged a healthy stream: %v", err)
	}
	plain := xbc.Run(xbc.NewXBCFrontend(8*1024), s)
	if checked.UopMissRate() != plain.UopMissRate() || checked.Bandwidth() != plain.Bandwidth() {
		t.Fatalf("checking changed the simulation: %.4f/%.4f vs %.4f/%.4f",
			checked.UopMissRate(), checked.Bandwidth(), plain.UopMissRate(), plain.Bandwidth())
	}
}
