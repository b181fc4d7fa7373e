// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-fig 1|8|9|10|all|none] [-extra STUDY[,STUDY...]|all]
//	            [-uops N] [-budget N] [-traces a,b,c] [-fidelity RUNG]
//	            [-csv|-md] [-plot] [-parallel N] [-timeout D] [-store DIR]
//
// STUDY is one of redundancy, frontends, ablation, pathassoc, xbtb,
// renamer, ctxswitch, phases or ipc.
//
// With no flags it reproduces all four figures at the default scale
// (21 workloads, 1M uops each, 32K-uop caches). -md writes one Markdown
// report instead: a heading per section, each table (and, with -plot,
// its chart) in a code block, and the run's wall time at the end.
// `experiments -md -plot -extra all` is the full evaluation report
// (docs/report.md).
//
// The run is interruptible and resumable: SIGINT drains in-flight cells
// and prints whatever completed; with -store DIR every finished cell is
// recorded in the crash-safe store as it completes, and a later run on
// the same DIR serves those cells instead of recomputing them. DIR may be
// an xbcd -store directory (not while that daemon runs): figure cells a
// job spec describes are stored as those jobs, so the daemon's results
// serve the figures and the figures' results serve the daemon. Each cell
// runs once: a cell that panics or errors costs only its own section.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"xbc"
	"xbc/internal/prof"
	"xbc/internal/service/jobspec"
)

// section is one figure or study: its -fig or -extra name, its Markdown
// heading, and how it runs.
type section struct {
	name, title string
	run         func(xbc.ExperimentOptions) (*xbc.Table, *xbc.Plot, error)
}

// tableOnly adapts a study, which renders one table, to a section.
func tableOnly(study func(xbc.ExperimentOptions) (*xbc.Table, error)) func(xbc.ExperimentOptions) (*xbc.Table, *xbc.Plot, error) {
	return func(o xbc.ExperimentOptions) (*xbc.Table, *xbc.Plot, error) {
		t, err := study(o)
		return t, nil, err
	}
}

var figures = []section{
	{"1", "Figure 1 — block length distribution", func(o xbc.ExperimentOptions) (*xbc.Table, *xbc.Plot, error) {
		r, err := xbc.Figure1(o)
		if err != nil {
			return nil, nil, err
		}
		return r.Table, nil, nil
	}},
	{"8", "Figure 8 — bandwidth", func(o xbc.ExperimentOptions) (*xbc.Table, *xbc.Plot, error) {
		r, err := xbc.Figure8(o)
		if err != nil {
			return nil, nil, err
		}
		return r.Table, nil, nil
	}},
	{"9", "Figure 9 — miss rate vs size", func(o xbc.ExperimentOptions) (*xbc.Table, *xbc.Plot, error) {
		r, err := xbc.Figure9(o)
		if err != nil {
			return nil, nil, err
		}
		return r.Table, r.Plot, nil
	}},
	{"10", "Figure 10 — miss rate vs associativity", func(o xbc.ExperimentOptions) (*xbc.Table, *xbc.Plot, error) {
		r, err := xbc.Figure10(o)
		if err != nil {
			return nil, nil, err
		}
		return r.Table, r.Plot, nil
	}},
}

var studies = []section{
	{"redundancy", "Redundancy", tableOnly(xbc.Redundancy)},
	{"frontends", "Frontend landscape", tableOnly(xbc.FrontendLandscape)},
	{"ablation", "Ablations", tableOnly(xbc.Ablation)},
	{"pathassoc", "Path associativity", tableOnly(xbc.PathAssociativity)},
	{"xbtb", "XBTB capacity", tableOnly(xbc.XBTBSweep)},
	{"renamer", "Renamer width", tableOnly(xbc.RenamerSweep)},
	{"ctxswitch", "Context switches", tableOnly(xbc.ContextSwitch)},
	{"phases", "Execution phases", tableOnly(xbc.Phases)},
	{"ipc", "Estimated IPC (interval analysis)", tableOnly(xbc.IPCEstimate)},
}

// format is how the sections render.
type format struct{ csv, md, plot bool }

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		fig      = flag.String("fig", "all", "figure to reproduce: 1, 8, 9, 10, all, or none")
		extra    = flag.String("extra", "", "extra studies: redundancy, frontends, ablation, pathassoc, xbtb, renamer, ctxswitch, phases, ipc (comma separated, or 'all')")
		uops     = flag.Uint64("uops", 1_000_000, "dynamic uops per workload")
		budget   = flag.Int("budget", 32*1024, "cache uop budget for fixed-size experiments (at least 1024)")
		traces   = flag.String("traces", "", "comma-separated workload subset (default: all 21)")
		fidelity = flag.String("fidelity", "", "simulation rung for figures 8-10: full, sampled, or estimate (default full)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		md       = flag.Bool("md", false, "emit one Markdown report instead of aligned text")
		plot     = flag.Bool("plot", false, "also draw ASCII charts for figures 9 and 10")
		parallel = flag.Int("parallel", runtime.NumCPU(), "concurrent workload simulations")
		timeout  = flag.Duration("timeout", 0, "per-cell deadline (0 = unbounded), e.g. 2m")
		storeDir = flag.String("store", "", "result store directory: finished cells are recorded there and served to later runs (may be an xbcd -store directory)")
	)
	profFlags := prof.AddFlags(flag.CommandLine)
	flag.Parse()

	// Reject what the service would reject, before any cell runs. A zero
	// budget means the default, as in a job spec.
	if !jobspec.ValidFidelity(*fidelity) {
		log.Fatalf("unknown -fidelity %q (want one of %s)", *fidelity, strings.Join(jobspec.Fidelities(), ", "))
	}
	if *budget != 0 && *budget < jobspec.MinBudget {
		log.Fatalf("-budget %d is below the %d-uop floor", *budget, jobspec.MinBudget)
	}
	if *csv && *md {
		log.Fatal("-csv and -md are two output formats; pick one")
	}
	sections, err := selectSections(*fig, *extra)
	if err != nil {
		log.Fatal(err)
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	ctx, stop := xbc.NotifyContext(context.Background())
	defer stop()
	opts := options()
	opts.UopsPerTrace = *uops
	opts.Budget = *budget
	opts.Fidelity = *fidelity
	opts.Parallel = *parallel
	opts.Ctx = ctx
	opts.CellTimeout = *timeout
	if *storeDir != "" {
		st, err := xbc.OpenStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}()
		opts.Store = st
	}
	if *traces != "" {
		ws, err := jobspec.ParseWorkloadList(*traces)
		if err != nil {
			log.Fatal(err)
		}
		opts.Workloads = ws
	}

	figErrs, err := render(os.Stdout, opts, sections, format{csv: *csv, md: *md, plot: *plot})
	if err != nil {
		log.Fatal(err)
	}

	// Epilogue: account for every cell, then pick the exit status. The
	// plan line reports the sweep planner's accounting whenever any cell
	// was reused, deduped, failed or aborted instead of simulated fresh.
	p := opts.Plan.Snapshot()
	if p.Planned > p.Simulated {
		fmt.Fprintln(os.Stderr, "experiments: plan:", p.String())
	}
	for _, f := range p.Failures {
		fmt.Fprintf(os.Stderr, "experiments: failed %s: %v\n", f.Cell, f.Err)
	}
	switch {
	case ctx.Err() != nil:
		msg := "interrupted; partial results above"
		if *storeDir != "" {
			msg += fmt.Sprintf("; rerun with -store %s to finish", *storeDir)
		} else {
			msg += "; rerun with -store DIR to make runs resumable"
		}
		fmt.Fprintln(os.Stderr, "experiments:", msg)
		stopProf() // os.Exit skips deferred calls
		os.Exit(130)
	case p.Failed > 0 || figErrs > 0:
		stopProf()
		os.Exit(1)
	}
}

// options returns the options every run starts from. Its plan tally
// accounts for every cell and also carries the run's memory, so a cell
// that several sections plan (Figure 8's cells recur in Figure 9 and the
// later studies) runs once.
func options() xbc.ExperimentOptions {
	opts := xbc.DefaultExperimentOptions()
	opts.Plan = &xbc.PlanTally{}
	return opts
}

// selectSections returns the figures -fig names, then the studies
// -extra names, in the order given.
func selectSections(fig, extra string) ([]section, error) {
	var out []section
	for _, f := range figures {
		if fig == "all" || fig == f.name {
			out = append(out, f)
		}
	}
	if len(out) == 0 && fig != "none" {
		return nil, fmt.Errorf("unknown -fig %q (want 1, 8, 9, 10, all or none)", fig)
	}
	if extra == "" {
		return out, nil
	}
	if extra == "all" {
		return append(out, studies...), nil
	}
	for _, name := range strings.Split(extra, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, st := range studies {
			if st.name == name {
				out, found = append(out, st), true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown extra study %q", name)
		}
	}
	return out, nil
}

// render runs every section under opts and writes what each produced to
// w. A section whose every cell failed is logged and counted, and the
// run goes on, so later sections and the epilogue still happen. A write
// error ends the run: output silently truncated by a full disk is worse
// than none.
func render(w io.Writer, opts xbc.ExperimentOptions, sections []section, f format) (failed int, err error) {
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	//xbc:ignore nondeterm wall-clock runtime is deliberately reported; it is not a simulated metric
	start := time.Now()
	if f.md {
		pr("# eXtended Block Cache — evaluation report\n\n")
		pr("Generated by `experiments -md` with %d workloads x %d uops, %dK-uop caches.\n\n",
			len(opts.Workloads), opts.UopsPerTrace, opts.Budget/1024)
	}
	for _, s := range sections {
		t, chart, serr := s.run(opts)
		if serr != nil {
			failed++
			log.Printf("%s: %v", s.title, serr)
			continue
		}
		if f.md {
			pr("## %s\n\n```\n", s.title)
		}
		if err == nil && f.csv {
			err = t.RenderCSV(w)
		} else if err == nil {
			err = t.Render(w)
		}
		if chart != nil && f.plot {
			pr("\n")
			if err == nil {
				err = chart.Render(w)
			}
		}
		if f.md {
			pr("```\n\n")
		} else {
			pr("\n")
		}
	}
	if f.md {
		pr("_Completed in %s._\n", time.Since(start).Round(time.Second))
	}
	return failed, err
}
