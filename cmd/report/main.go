// Command report runs the full evaluation and emits a single Markdown
// report — figures, extra studies, and charts — ready to drop into a
// wiki or paper appendix.
//
// Usage:
//
//	report [-uops N] [-budget N] [-o report.md]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"xbc"
	"xbc/internal/service/jobspec"
	"xbc/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	var (
		uops   = flag.Uint64("uops", 1_000_000, "dynamic uops per workload")
		budget = flag.Int("budget", 32*1024, "cache budget in uops")
		out    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	// Fail before the long run, not at the first figure that checks.
	if *budget != 0 && *budget < jobspec.MinBudget {
		log.Fatalf("-budget %d is below the %d-uop floor", *budget, jobspec.MinBudget)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	opts := options(*uops, *budget)
	if err := report(w, opts); err != nil {
		log.Fatal(err)
	}
	log.Printf("plan: %s", opts.Plan.Snapshot().String())
}

// options returns the run's experiment options. Its plan tally also
// carries the run's memory, so a cell that several sections plan
// (Figure 8's cells recur in Figure 9) runs once.
func options(uops uint64, budget int) xbc.ExperimentOptions {
	opts := xbc.DefaultExperimentOptions()
	opts.UopsPerTrace = uops
	opts.Budget = budget
	opts.Parallel = runtime.NumCPU()
	opts.Plan = &xbc.PlanTally{}
	return opts
}

// report runs every section of the evaluation with opts and writes the
// Markdown report to w. A write error fails the run: a report silently
// truncated by a full disk is worse than no report.
func report(w io.Writer, opts xbc.ExperimentOptions) error {
	var werr error
	pr := func(format string, args ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(w, format, args...)
		}
	}

	//xbc:ignore nondeterm wall-clock runtime is deliberately reported; it is not a simulated metric
	start := time.Now()
	pr("# eXtended Block Cache — evaluation report\n\n")
	pr("Generated by `cmd/report` with %d workloads x %d uops, %dK-uop caches.\n\n",
		len(opts.Workloads), opts.UopsPerTrace, opts.Budget/1024)

	section := func(title string, table *stats.Table, chart *stats.Plot) error {
		pr("## %s\n\n```\n", title)
		if werr == nil {
			werr = table.Render(w)
		}
		if chart != nil {
			pr("\n")
			if werr == nil {
				werr = chart.Render(w)
			}
		}
		pr("```\n\n")
		return werr
	}

	f1, err := xbc.Figure1(opts)
	if err != nil {
		return err
	}
	if err := section("Figure 1 — block length distribution", f1.Table, nil); err != nil {
		return err
	}

	f8, err := xbc.Figure8(opts)
	if err != nil {
		return err
	}
	if err := section("Figure 8 — bandwidth", f8.Table, nil); err != nil {
		return err
	}

	f9, err := xbc.Figure9(opts)
	if err != nil {
		return err
	}
	if err := section("Figure 9 — miss rate vs size", f9.Table, f9.Plot); err != nil {
		return err
	}

	f10, err := xbc.Figure10(opts)
	if err != nil {
		return err
	}
	if err := section("Figure 10 — miss rate vs associativity", f10.Table, f10.Plot); err != nil {
		return err
	}

	studies := []struct {
		title string
		fn    func(xbc.ExperimentOptions) (*xbc.Table, error)
	}{
		{"Redundancy", xbc.Redundancy},
		{"Frontend landscape", xbc.FrontendLandscape},
		{"Ablations", xbc.Ablation},
		{"Path associativity", xbc.PathAssociativity},
		{"XBTB capacity", xbc.XBTBSweep},
		{"Renamer width", xbc.RenamerSweep},
		{"Context switches", xbc.ContextSwitch},
		{"Execution phases", xbc.Phases},
		{"Estimated IPC (interval analysis)", xbc.IPCEstimate},
	}
	for _, st := range studies {
		tb, err := st.fn(opts)
		if err != nil {
			return err
		}
		if err := section(st.title, tb, nil); err != nil {
			return err
		}
	}

	pr("_Completed in %s._\n", time.Since(start).Round(time.Second))
	return werr
}
