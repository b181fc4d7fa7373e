// Command tracegen generates synthetic dynamic instruction traces and
// writes them in the binary .xtr format.
//
// Usage:
//
//	tracegen -trace gcc -uops 1000000 -o gcc.xtr
//	tracegen -all -uops 1000000 -dir traces/
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"xbc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		name    = flag.String("trace", "", "workload to generate")
		all     = flag.Bool("all", false, "generate all 21 workloads")
		uops    = flag.Uint64("uops", 1_000_000, "dynamic uops to generate")
		out     = flag.String("o", "", "output file (default <trace>.xtr)")
		dir     = flag.String("dir", ".", "output directory for -all")
		list    = flag.Bool("list", false, "list available workloads and exit")
		summary = flag.Bool("summary", false, "print a structural profile of each generated stream")
	)
	flag.Parse()

	if *list {
		for _, w := range xbc.Workloads() {
			fmt.Printf("%-12s %s\n", w.Name, w.Suite)
		}
		for _, w := range xbc.MicroWorkloads() {
			fmt.Printf("%-12s micro\n", w.Name)
		}
		return
	}

	write := func(w xbc.Workload, path string) {
		s, err := xbc.Generate(w, *uops)
		if err != nil {
			log.Fatalf("generating %s: %v", w.Name, err)
		}
		f, err := os.Create(path)
		if err == nil {
			err = xbc.WriteTrace(f, s)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			log.Fatalf("writing %s: %v", path, err)
		}
		fmt.Printf("%s: %d records, %d uops -> %s\n", w.Name, s.Len(), s.Uops(), path)
		if *summary {
			fmt.Print(xbc.Summarize(s))
		}
	}

	switch {
	case *all:
		for _, w := range xbc.Workloads() {
			write(w, filepath.Join(*dir, w.Name+".xtr"))
		}
	case *name != "":
		w, ok := xbc.WorkloadByName(*name)
		if !ok {
			w, ok = xbc.MicroWorkloadByName(*name)
		}
		if !ok {
			log.Fatalf("unknown workload %q; use -list", *name)
		}
		path := *out
		if path == "" {
			path = w.Name + ".xtr"
		}
		write(w, path)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
