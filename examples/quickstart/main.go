// Quickstart: generate a synthetic workload, run the eXtended Block Cache
// frontend over it, and print the paper's two headline metrics — the uop
// miss rate (how much of the stream still came from the slow IC/decode
// path) and the delivery bandwidth.
package main

import (
	"fmt"
	"log"

	"xbc"
)

func main() {
	// Pick one of the 21 synthetic workloads standing in for the paper's
	// proprietary traces.
	w, ok := xbc.WorkloadByName("gcc")
	if !ok {
		log.Fatal("workload gcc not found")
	}

	// Generate a deterministic dynamic instruction stream (1M uops).
	stream, err := xbc.Generate(w, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s (%s): %d instructions, %d uops\n",
		w.Name, w.Suite, stream.Len(), stream.Uops())

	// Run the paper's XBC configuration with a 32K-uop budget.
	fe := xbc.NewXBCFrontend(32 * 1024)
	m := xbc.Run(fe, stream)

	fmt.Printf("uop miss rate:      %6.2f %%  (uops supplied via the IC path)\n", m.UopMissRate())
	fmt.Printf("delivery bandwidth: %6.2f uops/cycle (renamer width 8)\n", m.Bandwidth())
	fmt.Printf("cond mispredicts:   %6.2f %%  (%d/%d XB-ending branches)\n",
		m.CondMissRate(), m.CondMiss, m.CondExec)
	fmt.Printf("redundancy:         %6.3f    (stored copies per distinct uop)\n",
		m.Extra["redundancy"])

	// Compare against the conventional trace cache at the same budget.
	tc := xbc.NewTraceCacheFrontend(32 * 1024)
	mt := xbc.Run(tc, stream)
	fmt.Printf("\ntrace cache at the same size: miss %.2f %%, bandwidth %.2f, redundancy %.3f\n",
		mt.UopMissRate(), mt.Bandwidth(), mt.Extra["redundancy"])
}
