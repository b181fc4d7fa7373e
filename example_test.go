package xbc_test

import (
	"fmt"

	"xbc"
)

// ExampleGenerate shows deterministic stream generation: the same
// workload and length always produce the same stream.
func ExampleGenerate() {
	w, _ := xbc.WorkloadByName("compress")
	a, _ := xbc.Generate(w, 10_000)
	b, _ := xbc.Generate(w, 10_000)
	fmt.Println(a.Len() == b.Len(), a.Uops() >= 10_000)
	// Output: true true
}

// ExampleNewXBCFrontend runs the paper's XBC over a stream and reads the
// headline metrics.
func ExampleNewXBCFrontend() {
	w, _ := xbc.WorkloadByName("doom")
	stream, _ := xbc.Generate(w, 50_000)
	m := xbc.Run(xbc.NewXBCFrontend(32*1024), stream)
	fmt.Println(m.Uops == stream.Uops())
	fmt.Println(m.UopMissRate() >= 0 && m.UopMissRate() <= 100)
	fmt.Println(m.Bandwidth() > 0 && m.Bandwidth() <= 8)
	// Output:
	// true
	// true
	// true
}

// ExampleSegmentLengths reproduces Figure 1's analysis for one stream.
func ExampleSegmentLengths() {
	w, _ := xbc.WorkloadByName("li")
	stream, _ := xbc.Generate(w, 50_000)
	bb := xbc.SegmentLengths(stream, xbc.BasicBlock, nil)
	x := xbc.SegmentLengths(stream, xbc.XB, nil)
	// Direct jumps end basic blocks but not XBs, so XBs are never shorter
	// on average.
	fmt.Println(x.Mean() >= bb.Mean())
	// Output: true
}

// ExampleInterleave mixes two workloads into one polluted stream.
func ExampleInterleave() {
	wa, _ := xbc.WorkloadByName("gcc")
	wb, _ := xbc.WorkloadByName("word")
	a, _ := xbc.Generate(wa, 20_000)
	b, _ := xbc.Generate(wb, 20_000)
	mixed, err := xbc.Interleave(1000, a, b)
	fmt.Println(err == nil, mixed.Len() > a.Len())
	// Output: true true
}

// ExampleDefaultXBCConfig customizes the XBC for an ablation run.
func ExampleDefaultXBCConfig() {
	cfg := xbc.DefaultXBCConfig(16 * 1024)
	cfg.Promotion = false // ablate branch promotion
	fe := xbc.NewXBCFrontendWith(cfg, xbc.DefaultFrontendConfig())
	fmt.Println(fe.Name())
	// Output: xbc
}
