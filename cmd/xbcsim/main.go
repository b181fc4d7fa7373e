// Command xbcsim runs one frontend model over one trace and reports the
// paper's metrics.
//
// Usage:
//
//	xbcsim -fe xbc -trace gcc -uops 1000000 -budget 32768
//	xbcsim -fe tc -in gcc.xtr
//	xbcsim -fe all -trace word
//
// -fe selects ic, decoded, tc, bbtc, xbc, or all. The input is either a
// named synthetic workload (-trace) or an .xtr file (-in).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"strings"

	"xbc"
	"xbc/internal/prof"
	"xbc/internal/service/jobspec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xbcsim: ")
	var (
		fe      = flag.String("fe", "xbc", "frontend: ic, decoded, tc, bbtc, xbc, all")
		name    = flag.String("trace", "", "synthetic workload name")
		in      = flag.String("in", "", ".xtr trace file")
		uops    = flag.Uint64("uops", 1_000_000, "dynamic uops (with -trace)")
		budget  = flag.Int("budget", 32*1024, "cache uop budget")
		check   = flag.Bool("check", false, "enable cycle-level invariant checking (xbc only)")
		fid     = flag.String("fidelity", "", "fidelity rung: "+strings.Join(jobspec.Fidelities(), ", ")+" (sampled/estimate need -trace)")
		verbose = flag.Bool("v", false, "print structure-specific extras")
	)
	profFlags := prof.AddFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	// A named workload runs through jobspec.Execute, the path the daemon
	// uses, at every fidelity; an .xtr file has no spec, so it replays
	// through RunSafe with a model built the same way.
	var s *xbc.Stream
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		s, err = xbc.ReadTrace(f)
		//xbc:ignore errdrop read-only trace input; decode errors surface from ReadTrace
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	case *name != "":
		if _, ok := jobspec.ResolveWorkload(*name); !ok {
			log.Fatalf("unknown workload %q (21 paper workloads plus micro: straightline, loopnest, callheavy, switchheavy, monotone)", *name)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	run := func(key string) {
		spec := jobspec.Spec{Frontend: key, Budget: *budget, Check: *check, Fidelity: *fid}.Normalize()
		var m xbc.Metrics
		if *in == "" {
			spec.Workload = *name
			spec.Uops = *uops
			res, err := jobspec.Execute(spec)
			if err != nil {
				log.Fatalf("%s: %v", key, err)
			}
			m = res.Metrics
			if res.Fidelity == jobspec.FidelityFull {
				fmt.Printf("%-8s insts=%d uops=%d\n", key, m.Insts, m.Uops)
			} else {
				fmt.Printf("%-8s insts=%d uops=%d fidelity=%s sampled_uops=%d bound=%v\n",
					key, m.Insts, m.Uops, res.EffectiveFidelity(), res.SampledUops, res.ErrorBound)
			}
		} else {
			if spec.Fidelity != "" {
				log.Fatal("-fidelity sampled/estimate needs -trace (a named workload)")
			}
			model, err := spec.NewFrontend()
			if err != nil {
				log.Fatal(err)
			}
			m, err = xbc.RunSafe(model, s)
			if err != nil {
				log.Fatalf("%s: %v", model.Name(), err)
			}
			fmt.Printf("%-8s insts=%d uops=%d\n", model.Name(), m.Insts, m.Uops)
		}
		fmt.Printf("  uop miss rate   %6.2f %%\n", m.UopMissRate())
		fmt.Printf("  delivery BW     %6.2f uops/cycle\n", m.Bandwidth())
		fmt.Printf("  overall BW      %6.2f uops/cycle\n", m.OverallBandwidth())
		fmt.Printf("  cond mispredict %6.2f %% (%d/%d)\n", m.CondMissRate(), m.CondMiss, m.CondExec)
		fmt.Printf("  mode switches   %d, structure misses %d\n", m.ModeSwitches, m.StructMisses)
		ph := m.Phases()
		fmt.Printf("  phases          steady %.1f%% / transition %.1f%% / stall %.1f%%\n",
			ph.SteadyPct, ph.TransitionPct, ph.StallPct)
		if *verbose && len(m.Extra) > 0 {
			keys := make([]string, 0, len(m.Extra))
			//xbc:ignore nondeterm key collection; sorted before use
			for k := range m.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("  %-20s %g\n", k, m.Extra[k])
			}
		}
	}

	if *fe == "all" {
		for _, key := range jobspec.Kinds() {
			run(key)
		}
		return
	}
	if !jobspec.ValidKind(*fe) {
		log.Fatalf("unknown frontend %q (want %s, or all)", *fe, strings.Join(jobspec.Kinds(), ", "))
	}
	run(*fe)
}
