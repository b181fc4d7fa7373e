package experiments

import (
	"path/filepath"
	"testing"

	"xbc/internal/planner"
	"xbc/internal/runner"
)

// sweepFigures are the sweep figures whose tables must be identical
// whether each cell simulates fresh or replays from the journal.
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
// one reuse path, journal replay: for every sweep figure, a run resumed
// from the journal of a fresh run must render byte-for-byte identical
// tables while simulating nothing — every unique cell is replayed.
// Replayed cells come back as raw JSON, so this also round-trips each
// figure's payload type.
func TestPlannerBitIdenticalToNaive(t *testing.T) {
	for _, fig := range sweepFigures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "sweep.journal")
			run := func(resume bool) (string, planner.Report) {
				j, err := runner.OpenJournal(path, resume)
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
				}()
				o := smallOpts()
				o.UopsPerTrace = 60_000
				o.Journal = j
				tally := &planner.Tally{}
				o.Plan = tally
				tb, err := fig.run(o)
				if err != nil {
					t.Fatal(err)
				}
				return tb.String(), tally.Snapshot()
			}

			fresh, fr := run(false)
			resumed, rr := run(true)
			if resumed != fresh {
				t.Errorf("resumed run diverges from fresh run:\nfresh:\n%s\nresumed:\n%s", fresh, resumed)
			}
			if unique := fr.Planned - fr.Deduped; fr.Simulated != unique || fr.Reused != 0 || unique == 0 {
				t.Errorf("fresh run did not simulate every unique cell: %s", fr.String())
			}
			if unique := rr.Planned - rr.Deduped; rr.Simulated != 0 || rr.Reused != unique || unique == 0 {
				t.Errorf("resumed run not fully replayed from the journal: %s", rr.String())
			}
		})
	}
}

// TestDuplicateWorkloadsAreNotResumed: a workload listed twice is one
// deduped cell, not a journal replay — with no journal the runner report
// must count no resumed cells.
func TestDuplicateWorkloadsAreNotResumed(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 20_000
	o.Workloads = append(o.Workloads[:1:1], o.Workloads[0])
	o.Report = &runner.Report{}
	tally := &planner.Tally{}
	o.Plan = tally
	if _, err := Figure8(o); err != nil {
		t.Fatal(err)
	}
	if done, skipped, _, _ := o.Report.Counts(); skipped != 0 || done != 1 {
		t.Errorf("report %q, want 1 done and none resumed", o.Report.Summary())
	}
	if p := tally.Snapshot(); p.Planned != 2 || p.Deduped != 1 || p.Simulated != 1 {
		t.Errorf("plan %s, want 2 planned, 1 deduped, 1 simulated", p.String())
	}
}
