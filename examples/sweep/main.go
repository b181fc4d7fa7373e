// Sweep: the capacity study behind Figure 9, runnable on any workload
// subset. For each cache size it prints XBC and TC uop miss rates and the
// relative reduction — the paper's headline claim is that the XBC misses
// ~29% less, so that a TC needs >50% more capacity to match it.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"xbc"
)

func main() {
	uops := flag.Uint64("uops", 500_000, "dynamic uops per workload")
	traces := flag.String("traces", "gcc,word,doom", "comma-separated workloads")
	flag.Parse()

	sizes := []int{8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024}

	var ws []xbc.Workload
	for _, n := range strings.Split(*traces, ",") {
		w, ok := xbc.WorkloadByName(strings.TrimSpace(n))
		if !ok {
			log.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}

	fmt.Printf("%-8s", "size")
	for _, w := range ws {
		fmt.Printf("  %16s", w.Name+" XBC/TC")
	}
	fmt.Printf("  %14s\n", "avg reduction")

	for _, size := range sizes {
		fmt.Printf("%-8s", fmt.Sprintf("%dK", size/1024))
		var reductions []float64
		for _, w := range ws {
			stream, err := xbc.Generate(w, *uops)
			if err != nil {
				log.Fatal(err)
			}
			mx := xbc.Run(xbc.NewXBCFrontend(size), stream)
			mt := xbc.Run(xbc.NewTraceCacheFrontend(size), stream)
			fmt.Printf("  %7.2f%%/%6.2f%%", mx.UopMissRate(), mt.UopMissRate())
			if mt.UopMissRate() > 0 {
				reductions = append(reductions, 1-mx.UopMissRate()/mt.UopMissRate())
			}
		}
		var avg float64
		for _, r := range reductions {
			avg += r
		}
		if len(reductions) > 0 {
			avg /= float64(len(reductions))
		}
		fmt.Printf("  %13.1f%%\n", 100*avg)
	}
}
