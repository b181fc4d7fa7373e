// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-fig 1|8|9|10|all|none] [-extra STUDY[,STUDY...]|all]
//	            [-uops N] [-budget N] [-traces a,b,c] [-fidelity RUNG]
//	            [-csv] [-plot] [-parallel N] [-timeout D] [-store DIR]
//
// STUDY is one of redundancy, frontends, ablation, pathassoc, xbtb,
// renamer, ctxswitch, phases or ipc.
//
// With no flags it reproduces all four figures at the default scale
// (21 workloads, 1M uops each, 32K-uop caches).
//
// The run is interruptible and resumable: SIGINT drains in-flight cells
// and prints whatever completed; with -store DIR every finished cell is
// recorded in the crash-safe store as it completes, and a later run on
// the same DIR serves those cells instead of recomputing them. DIR may be
// an xbcd -store directory (not while that daemon runs): figure cells a
// job spec describes are stored as those jobs, so the daemon's results
// serve the figures and the figures' results serve the daemon. Each cell
// runs once: a cell that panics or errors costs only its own table row.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"xbc"
	"xbc/internal/prof"
	"xbc/internal/service/jobspec"
	"xbc/internal/stats"
)

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

	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	ctx, stop := xbc.NotifyContext(context.Background())
	defer stop()
	report := &xbc.RunReport{}
	plan := &xbc.PlanTally{}

	opts := xbc.DefaultExperimentOptions()
	opts.UopsPerTrace = *uops
	opts.Budget = *budget
	opts.Fidelity = *fidelity
	opts.Parallel = *parallel
	opts.Ctx = ctx
	opts.CellTimeout = *timeout
	opts.Report = report
	opts.Plan = plan
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

	emit := func(t *stats.Table) {
		var err error
		if *csv {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	// A figure whose every cell failed returns an error; the run keeps
	// going so later figures (and the epilogue) still happen.
	var figErrs int
	check := func(what string, err error) bool {
		if err != nil {
			figErrs++
			log.Printf("%s: %v", what, err)
			return false
		}
		return true
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("1") {
		if r, err := xbc.Figure1(opts); check("figure 1", err) {
			emit(r.Table)
		}
	}
	if want("8") {
		if r, err := xbc.Figure8(opts); check("figure 8", err) {
			emit(r.Table)
		}
	}
	if want("9") {
		if r, err := xbc.Figure9(opts); check("figure 9", err) {
			emit(r.Table)
			if *plot {
				if err := r.Plot.Render(os.Stdout); err != nil {
					log.Fatal(err)
				}
				fmt.Println()
			}
		}
	}
	if want("10") {
		if r, err := xbc.Figure10(opts); check("figure 10", err) {
			emit(r.Table)
			if *plot {
				if err := r.Plot.Render(os.Stdout); err != nil {
					log.Fatal(err)
				}
				fmt.Println()
			}
		}
	}

	if *extra != "" {
		type study struct {
			name string
			run  func(xbc.ExperimentOptions) (*xbc.Table, error)
		}
		all := []study{
			{"redundancy", xbc.Redundancy},
			{"frontends", xbc.FrontendLandscape},
			{"ablation", xbc.Ablation},
			{"pathassoc", xbc.PathAssociativity},
			{"xbtb", xbc.XBTBSweep},
			{"renamer", xbc.RenamerSweep},
			{"ctxswitch", xbc.ContextSwitch},
			{"phases", xbc.Phases},
			{"ipc", xbc.IPCEstimate},
		}
		names := strings.Split(*extra, ",")
		if *extra == "all" {
			names = names[:0]
			for _, st := range all {
				names = append(names, st.name)
			}
		}
		for _, n := range names {
			n = strings.TrimSpace(n)
			found := false
			for _, st := range all {
				if st.name == n {
					found = true
					if t, err := st.run(opts); check(st.name, err) {
						emit(t)
					}
					break
				}
			}
			if !found {
				log.Fatalf("unknown extra study %q", n)
			}
		}
	}

	// Epilogue: account for every cell, then pick the exit status. The
	// plan line reports the sweep planner's reuse accounting whenever any
	// cell was served without a fresh simulation.
	_, failed, aborted := report.Counts()
	if failed+aborted > 0 || ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments:", report.Summary())
	}
	if p := plan.Snapshot(); p.Planned > p.Simulated {
		fmt.Fprintln(os.Stderr, "experiments: plan:", p.String())
	}
	for _, f := range report.Failures() {
		fmt.Fprintf(os.Stderr, "experiments: failed %s: %v\n", f.Cell, f.Err.Err)
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
	case failed > 0 || figErrs > 0:
		stopProf()
		os.Exit(1)
	}
}
