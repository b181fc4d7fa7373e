// Command calibrate verifies the synthetic workload suite against the
// statistics the paper's evaluation depends on: the Figure-1 block length
// means, dynamic code footprints, branch mixes, and a quick XBC-vs-TC
// sanity comparison per workload. Run it after touching the workload
// generator.
//
// A workload that fails to generate or simulate costs only its own row:
// the rest of the table still prints, the first error is reported, and
// the exit status is nonzero. SIGINT drains in-flight workloads and
// prints what completed.
//
// Usage:
//
//	calibrate [-uops N] [-traces a,b,c] [-budget N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"xbc"
	"xbc/internal/planner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	var (
		uops     = flag.Uint64("uops", 500_000, "dynamic uops per workload")
		budget   = flag.Int("budget", 32*1024, "cache budget for the sanity comparison")
		traces   = flag.String("traces", "", "workload subset (default all 21)")
		parallel = flag.Int("parallel", 4, "concurrent workload simulations")
	)
	flag.Parse()

	ws := xbc.Workloads()
	if *traces != "" {
		ws = ws[:0]
		for _, n := range strings.Split(*traces, ",") {
			w, ok := xbc.WorkloadByName(strings.TrimSpace(n))
			if !ok {
				log.Fatalf("unknown workload %q", n)
			}
			ws = append(ws, w)
		}
	}

	type row struct {
		w                      xbc.Workload
		sum                    xbc.Summary
		bb, xb, xp, dx         float64
		xbcMiss, tcMiss, ratio float64
	}
	ctx, stop := xbc.NotifyContext(context.Background())
	defer stop()
	cells := make([]planner.Cell, len(ws))
	for i, w := range ws {
		w := w
		cells[i] = planner.Cell{
			Key:      w.Name,
			Locality: w.Name,
			Name:     "calibrate/" + w.Name,
			Run: func(ctx context.Context) (any, error) {
				s, err := xbc.Generate(w, *uops)
				if err != nil {
					return nil, err
				}
				r := row{w: w, sum: xbc.Summarize(s)}
				bias := xbc.MeasureBias(s)
				r.bb = xbc.SegmentLengths(s, xbc.BasicBlock, nil).Mean()
				r.xb = xbc.SegmentLengths(s, xbc.XB, nil).Mean()
				r.xp = xbc.SegmentLengths(s, xbc.XBPromoted, bias).Mean()
				r.dx = xbc.SegmentLengths(s, xbc.DualXB, nil).Mean()
				mx, err := xbc.RunSafe(xbc.NewXBCFrontend(*budget), s)
				if err != nil {
					return nil, err
				}
				r.xbcMiss = mx.UopMissRate()
				mt, err := xbc.RunSafe(xbc.NewTraceCacheFrontend(*budget), s)
				if err != nil {
					return nil, err
				}
				r.tcMiss = mt.UopMissRate()
				if r.tcMiss > 0 {
					r.ratio = 1 - r.xbcMiss/r.tcMiss
				}
				return r, nil
			},
		}
	}
	results, _ := planner.Run(ctx, cells, planner.Options{Parallel: *parallel})

	fmt.Printf("%-10s %-10s %9s %6s %6s %6s %6s  %7s %7s %7s\n",
		"trace", "suite", "footprint", "BB", "XB", "XB+p", "dual", "XBC%", "TC%", "redu")
	var abb, axb, axp, adx, ared float64
	var n float64
	var firstErr error
	var failed, aborted int
	for _, res := range results {
		switch res.Status {
		case planner.StatusSimulated:
			r := res.Value.(row)
			fmt.Printf("%-10s %-10s %8dK %6.2f %6.2f %6.2f %6.2f  %7.2f %7.2f %6.1f%%\n",
				r.w.Name, r.w.Suite, r.sum.StaticUops/1024, r.bb, r.xb, r.xp, r.dx,
				r.xbcMiss, r.tcMiss, 100*r.ratio)
			abb += r.bb
			axb += r.xb
			axp += r.xp
			adx += r.dx
			ared += r.ratio
			n++
		case planner.StatusFailed:
			failed++
			if firstErr == nil {
				firstErr = res.Err
			}
		case planner.StatusAborted:
			aborted++
		}
	}
	if n > 0 {
		fmt.Printf("%-10s %-10s %9s %6.2f %6.2f %6.2f %6.2f  %7s %7s %6.1f%%\n",
			"MEAN", "", "", abb/n, axb/n, axp/n, adx/n, "", "", 100*ared/n)
	}
	fmt.Printf("%-10s %-10s %9s %6.1f %6.1f %6.1f %6.1f   (Figure 1 targets)\n",
		"PAPER", "", "", 7.7, 8.0, 10.0, 12.7)

	if aborted > 0 {
		log.Printf("interrupted: %d workload(s) not run", aborted)
	}
	if firstErr != nil {
		log.Printf("%d workload(s) failed; first error: %v", failed, firstErr)
		os.Exit(1)
	}
	if aborted > 0 {
		os.Exit(130)
	}
}
