// Promotion: a focused study of branch promotion (section 3.8 of the
// paper). It runs the XBC with promotion on and off over a few workloads
// and prints how the feature lengthens the fetched blocks, what it costs
// in promotion violations, and what it buys in bandwidth — plus the
// structural view from Figure 1's segmentation (XB vs XB-with-promotion
// length distributions).
package main

import (
	"flag"
	"fmt"
	"log"

	"xbc"
)

func main() {
	uops := flag.Uint64("uops", 500_000, "dynamic uops per workload")
	budget := flag.Int("budget", 32*1024, "cache budget in uops")
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"go", "quake", "word"}
	}

	for _, name := range names {
		w, ok := xbc.WorkloadByName(name)
		if !ok {
			log.Fatalf("unknown workload %q", name)
		}
		stream, err := xbc.Generate(w, *uops)
		if err != nil {
			log.Fatal(err)
		}

		// Structural view: how much longer do blocks get when monotonic
		// branches stop cutting?
		bias := xbc.MeasureBias(stream)
		plain := xbc.SegmentLengths(stream, xbc.XB, nil)
		prom := xbc.SegmentLengths(stream, xbc.XBPromoted, bias)

		// Behavioural view: the full frontend with the feature toggled.
		on := xbc.DefaultXBCConfig(*budget)
		off := on
		off.Promotion = false
		mOn := xbc.Run(xbc.NewXBCFrontendWith(on, xbc.DefaultFrontendConfig()), stream)
		mOff := xbc.Run(xbc.NewXBCFrontendWith(off, xbc.DefaultFrontendConfig()), stream)

		fmt.Printf("== %s (%s) ==\n", w.Name, w.Suite)
		fmt.Printf("  mean XB length:        %5.2f uops -> %5.2f with promotion\n",
			plain.Mean(), prom.Mean())
		fmt.Printf("  promotion off:  miss %5.2f%%  bw %4.2f uops/cyc\n",
			mOff.UopMissRate(), mOff.Bandwidth())
		fmt.Printf("  promotion on:   miss %5.2f%%  bw %4.2f uops/cyc  (%.0f promotions, %.0f violations, %.0f redirects)\n",
			mOn.UopMissRate(), mOn.Bandwidth(),
			mOn.Extra["promotions"], mOn.Extra["prom_violations"], mOn.Extra["prom_redirects"])
		fmt.Println()
	}
}
