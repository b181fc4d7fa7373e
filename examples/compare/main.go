// Compare: run all five instruction-supply models over one suite and
// print the section-2 landscape the paper motivates the XBC with — the
// instruction cache is bandwidth-bound, the decoded cache fixes latency
// but not bandwidth, the trace cache fixes bandwidth but wastes capacity
// on redundant copies, the block-based trace cache moves redundancy to
// pointers, and the XBC removes it.
package main

import (
	"flag"
	"fmt"
	"log"

	"xbc"
)

func main() {
	suiteFlag := flag.String("suite", "SPECint95", "suite: SPECint95, SYSmark32, Games")
	uops := flag.Uint64("uops", 500_000, "dynamic uops per workload")
	budget := flag.Int("budget", 32*1024, "cache budget in uops")
	flag.Parse()

	var suite xbc.Suite
	switch *suiteFlag {
	case "SPECint95":
		suite = xbc.SPECint
	case "SYSmark32":
		suite = xbc.SYSmark
	case "Games":
		suite = xbc.Games
	default:
		log.Fatalf("unknown suite %q", *suiteFlag)
	}

	fmt.Printf("%-10s %10s %14s %14s %14s %14s\n",
		"trace", "IC bw", "decoded", "TC", "BBTC", "XBC")
	fmt.Printf("%-10s %10s %14s %14s %14s %14s\n",
		"", "", "miss% / bw", "miss% / bw", "miss% / bw", "miss% / bw")

	for _, w := range xbc.Workloads() {
		if w.Suite != suite {
			continue
		}
		stream, err := xbc.Generate(w, *uops)
		if err != nil {
			log.Fatal(err)
		}
		run := func(fe xbc.Frontend) xbc.Metrics {
			return xbc.Run(fe, stream)
		}
		ic := run(xbc.NewICFrontend())
		dec := run(xbc.NewDecodedFrontend(*budget))
		tc := run(xbc.NewTraceCacheFrontend(*budget))
		bb := run(xbc.NewBBTCFrontend(*budget))
		xb := run(xbc.NewXBCFrontend(*budget))
		fmt.Printf("%-10s %10.2f %7.2f / %4.2f %7.2f / %4.2f %7.2f / %4.2f %7.2f / %4.2f\n",
			w.Name, ic.Bandwidth(),
			dec.UopMissRate(), dec.Bandwidth(),
			tc.UopMissRate(), tc.Bandwidth(),
			bb.UopMissRate(), bb.Bandwidth(),
			xb.UopMissRate(), xb.Bandwidth())
	}
}
