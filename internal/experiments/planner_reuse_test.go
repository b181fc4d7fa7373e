package experiments

import (
	"testing"

	"xbc/internal/planner"
)

// sweepFigures are the sweep figures whose tables must be identical
// whether each cell simulates fresh or is served from the store.
var sweepFigures = []struct {
	name string
	run  func(Options) (interface{ String() string }, error)
}{
	{"xbtb", func(o Options) (interface{ String() string }, error) { return XBTBSweep(o) }},
	{"renamer", func(o Options) (interface{ String() string }, error) { return RenamerSweep(o) }},
	{"ctxswitch", func(o Options) (interface{ String() string }, error) { return ContextSwitch(o) }},
	{"phases", func(o Options) (interface{ String() string }, error) { return Phases(o) }},
}

// TestPlannerBitIdenticalToNaive is the property test for the planner's
// one reuse path across runs, the store: for every sweep figure, a rerun
// on the store of a fresh run must render byte-for-byte identical tables
// while simulating nothing — every unique cell is served from the store.
// Served cells come back decoded from their stored bytes, so this also
// round-trips each figure's stored value type.
func TestPlannerBitIdenticalToNaive(t *testing.T) {
	for _, fig := range sweepFigures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			st := openStoreT(t, t.TempDir())
			run := func() (string, planner.Report) {
				o := smallOpts()
				o.UopsPerTrace = 60_000
				o.Store = st
				tally := &planner.Tally{}
				o.Plan = tally
				tb, err := fig.run(o)
				if err != nil {
					t.Fatal(err)
				}
				return tb.String(), tally.Snapshot()
			}

			fresh, fr := run()
			resumed, rr := run()
			if resumed != fresh {
				t.Errorf("resumed run diverges from fresh run:\nfresh:\n%s\nresumed:\n%s", fresh, resumed)
			}
			if unique := fr.Planned - fr.Deduped; fr.Simulated != unique || fr.Reused != 0 || unique == 0 {
				t.Errorf("fresh run did not simulate every unique cell: %s", fr.String())
			}
			if unique := rr.Planned - rr.Deduped; rr.Simulated != 0 || rr.Reused != unique || unique == 0 {
				t.Errorf("resumed run not fully served from the store: %s", rr.String())
			}
		})
	}
}

// TestDuplicateWorkloadsAreNotResumed: a workload listed twice is
// deduped, not served from a store — with no store the plan reuses
// nothing and simulates each unique cell once.
func TestDuplicateWorkloadsAreNotResumed(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 20_000
	o.Workloads = append(o.Workloads[:1:1], o.Workloads[0])
	tally := &planner.Tally{}
	o.Plan = tally
	if _, err := Figure8(o); err != nil {
		t.Fatal(err)
	}
	// Figure 8 plans two cells per workload: the XBC and the TC.
	if p := tally.Snapshot(); p.Planned != 4 || p.Deduped != 2 || p.Reused != 0 || p.Simulated != 2 {
		t.Errorf("plan %s, want 4 planned, 2 deduped, 0 reused, 2 simulated", p.String())
	}
}
