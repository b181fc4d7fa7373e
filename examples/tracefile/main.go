// Tracefile: the trace-handling workflow — generate a workload stream,
// serialize it to the binary .xtr format, read it back, profile it, and
// run a frontend on the file-loaded copy. This is the flow for working
// with externally produced traces (anything that can be converted into
// the record format can drive the simulators).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"xbc"
)

func main() {
	w, ok := xbc.WorkloadByName("vortex")
	if !ok {
		log.Fatal("unknown workload vortex")
	}
	stream, err := xbc.Generate(w, 500_000)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "xbc-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "vortex.xtr")

	// Serialize.
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := xbc.WriteTrace(f, stream); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("wrote %s: %d records in %d bytes (%.2f bytes/record)\n",
		path, stream.Len(), info.Size(), float64(info.Size())/float64(stream.Len()))

	// Read back and verify.
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := xbc.ReadTrace(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if loaded.Len() != stream.Len() {
		log.Fatalf("round trip lost records: %d vs %d", loaded.Len(), stream.Len())
	}

	// Profile the loaded stream.
	fmt.Println()
	fmt.Print(xbc.Summarize(loaded))

	// And simulate from the file-loaded copy.
	m := xbc.Run(xbc.NewXBCFrontend(32*1024), loaded)
	fmt.Printf("\nXBC on the loaded trace: miss %.2f%%, bandwidth %.2f uops/cycle\n",
		m.UopMissRate(), m.Bandwidth())
}
