// Command benchjson runs the repo's benchmarks and records the numbers
// that matter for hot-path regressions — simulation throughput (uops/s)
// and allocations per op — as stable JSON, so two runs can be diffed
// mechanically instead of eyeballed. Each benchmark runs five times
// (go test -count 5) and every number recorded is its median.
//
// Usage:
//
//	benchjson -o BENCH_PR4.json                  # run frontend benches, write JSON
//	benchjson -bench 'BenchmarkGenerate' -o g.json
//	benchjson -pkg ./internal/planner -bench 'BenchmarkSweep' -o BENCH_PR7.json
//	benchjson -in raw.txt -o old.json            # parse an existing `go test -bench` log
//	benchjson -compare OLD.json NEW.json         # diff two recordings
//
// Compare mode prints per-benchmark deltas and exits 1 when any
// benchmark's allocs/op grew by more than -max-alloc-regress percent
// (default 10) or its uops/s throughput fell by more than -maxslow
// percent (default 10), making `make bench-compare` and `make
// bench-gate` usable CI gates.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded numbers.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	UopsPerS    float64 `json:"uops_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SimCellsPerOp is the sweep benchmarks' custom metric: simulations
	// actually executed per sweep. Unlike timing it is deterministic, so
	// compare gates any growth at all.
	SimCellsPerOp float64 `json:"simcells_per_op,omitempty"`
	// SimUopsPerOp is the fidelity benchmarks' custom metric: uops
	// simulated in detail per run. Deterministic like SimCellsPerOp, and
	// gated the same way — the sampled rung must never quietly start
	// simulating more of the stream.
	SimUopsPerOp float64 `json:"simuops_per_op,omitempty"`
}

// File is the recorded benchmark set.
type File struct {
	Bench      string            `json:"bench"`      // regexp the run used
	BenchTime  string            `json:"benchtime"`  // iteration budget
	Benchmarks map[string]Result `json:"benchmarks"` // name (sans Benchmark prefix) -> numbers
}

// The lazy name match lets the optional -N GOMAXPROCS suffix actually
// strip: a greedy \S+ would swallow it into the name, so recordings made
// on machines with different core counts would share no benchmarks.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parse reads a `go test -bench` log. A benchmark run several times
// (-count) records each metric's median over its runs.
func parse(r io.Reader) (map[string]Result, error) {
	runs := map[string][]Result{}
	var names []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		if _, seen := runs[name]; !seen {
			names = append(names, name)
		}
		var res Result
		fields := strings.Fields(m[3])
		// Fields come in (value, unit) pairs: 123 ns/op 456 B/op ...
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "uops/s":
				res.UopsPerS = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			case "simcells/op":
				res.SimCellsPerOp = v
			case "simuops/op":
				res.SimUopsPerOp = v
			}
		}
		runs[name] = append(runs[name], res)
	}
	out := make(map[string]Result, len(names))
	for _, name := range names {
		out[name] = median(runs[name])
	}
	return out, sc.Err()
}

// median returns each metric's median over runs; an even count takes the
// mean of the middle two.
func median(runs []Result) Result {
	var out Result
	ov := reflect.ValueOf(&out).Elem()
	vs := make([]float64, len(runs))
	for f := 0; f < ov.NumField(); f++ {
		for i, r := range runs {
			vs[i] = reflect.ValueOf(r).Field(f).Float()
		}
		sort.Float64s(vs)
		mid := len(vs) / 2
		v := vs[mid]
		if len(vs)%2 == 0 {
			v = (vs[mid-1] + v) / 2
		}
		ov.Field(f).SetFloat(v)
	}
	return out
}

// benchCount is how many times each benchmark runs: the recorded numbers
// are medians, so one noisy run cannot trip a gate.
const benchCount = "5"

func run(bench, benchtime, pkg string) (map[string]Result, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-benchmem", "-benchtime", benchtime, "-count", benchCount, pkg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	if _, err := os.Stdout.Write(out); err != nil { // keep the raw log visible
		return nil, err
	}
	return parse(strings.NewReader(string(out)))
}

func load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles diffs two recordings, writing the delta table to w. It
// returns the number of regressions past either gate — allocs/op growth
// beyond maxAllocRegressPct or uops/s slowdown beyond maxSlowPct — and
// the benchmarks recorded in old but absent from new: a benchmark that
// disappeared between runs must not silently read as a pass.
func compareFiles(oldF, newF *File, maxAllocRegressPct, maxSlowPct float64, w io.Writer) (regressions int, missing []string, err error) {
	names := make([]string, 0, len(newF.Benchmarks))
	//xbc:ignore nondeterm key collection; sorted before use
	for n := range newF.Benchmarks {
		if _, ok := oldF.Benchmarks[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	//xbc:ignore nondeterm key collection; sorted before use
	for n := range oldF.Benchmarks {
		if _, ok := newF.Benchmarks[n]; !ok {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	if len(names) == 0 {
		return 0, missing, errors.New("no common benchmarks")
	}
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	// pct guards the zero baseline: the ratio is undefined, and the gate
	// below decides zero-to-nonzero growth on its own.
	pct := func(oldV, newV float64) string {
		if oldV == 0 {
			return "   n/a"
		}
		return fmt.Sprintf("%+6.1f%%", 100*(newV-oldV)/oldV)
	}
	pr("%-22s %14s %14s %8s   %14s %14s %8s\n",
		"benchmark", "allocs(old)", "allocs(new)", "delta", "uops/s(old)", "uops/s(new)", "delta")
	for _, n := range names {
		o, nw := oldF.Benchmarks[n], newF.Benchmarks[n]
		pr("%-22s %14.0f %14.0f %8s   %14.0f %14.0f %8s\n",
			n, o.AllocsPerOp, nw.AllocsPerOp, pct(o.AllocsPerOp, nw.AllocsPerOp),
			o.UopsPerS, nw.UopsPerS, pct(o.UopsPerS, nw.UopsPerS))
		switch {
		case o.AllocsPerOp == 0 && nw.AllocsPerOp > 0:
			// Any growth from a zero-alloc baseline breaches every
			// percentage gate.
			pr("  ^ REGRESSION: allocs/op grew from a zero-alloc baseline\n")
			regressions++
		case o.AllocsPerOp > 0 && nw.AllocsPerOp > o.AllocsPerOp*(1+maxAllocRegressPct/100):
			pr("  ^ REGRESSION: allocs/op grew past the %.0f%% gate\n", maxAllocRegressPct)
			regressions++
		}
		// Simulated-cells gate: the metric is deterministic (a plan either
		// dedups a cell or it doesn't), so any growth at all is a planner
		// regression — no noise margin applies.
		if o.SimCellsPerOp > 0 || nw.SimCellsPerOp > 0 {
			pr("  simcells/op %.0f -> %.0f\n", o.SimCellsPerOp, nw.SimCellsPerOp)
			switch {
			case o.SimCellsPerOp > 0 && nw.SimCellsPerOp == 0:
				pr("  ^ REGRESSION: simcells/op metric disappeared from the new recording\n")
				regressions++
			case nw.SimCellsPerOp > o.SimCellsPerOp:
				pr("  ^ REGRESSION: the planner simulates more cells than the baseline\n")
				regressions++
			}
		}
		// Simulated-uops gate: same discipline as simcells/op — the count
		// is deterministic, so any growth means the sampler covers more of
		// the stream than the recorded baseline.
		if o.SimUopsPerOp > 0 || nw.SimUopsPerOp > 0 {
			pr("  simuops/op %.0f -> %.0f\n", o.SimUopsPerOp, nw.SimUopsPerOp)
			switch {
			case o.SimUopsPerOp > 0 && nw.SimUopsPerOp == 0:
				pr("  ^ REGRESSION: simuops/op metric disappeared from the new recording\n")
				regressions++
			case nw.SimUopsPerOp > o.SimUopsPerOp:
				pr("  ^ REGRESSION: more uops simulated in detail than the baseline\n")
				regressions++
			}
		}
		// Throughput gate, independent of the alloc gate so one benchmark
		// can trip both. Strict <: landing exactly on the boundary passes.
		switch {
		case o.UopsPerS > 0 && nw.UopsPerS == 0:
			// The metric vanished — a harness change that stops reporting
			// uops/s must not read as "no slowdown".
			pr("  ^ REGRESSION: uops/s metric disappeared from the new recording\n")
			regressions++
		case o.UopsPerS > 0 && nw.UopsPerS < o.UopsPerS*(1-maxSlowPct/100):
			pr("  ^ REGRESSION: uops/s fell past the %.0f%% gate\n", maxSlowPct)
			regressions++
		}
	}
	return regressions, missing, err
}

func compare(oldPath, newPath string, maxAllocRegressPct, maxSlowPct float64) int {
	oldF, err := load(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newF, err := load(newPath)
	if err != nil {
		log.Fatal(err)
	}
	regressions, missing, err := compareFiles(oldF, newF, maxAllocRegressPct, maxSlowPct, os.Stdout)
	for _, n := range missing {
		log.Printf("warning: benchmark %s in %s is missing from %s", n, oldPath, newPath)
	}
	if err != nil {
		log.Fatalf("%v (comparing %s and %s)", err, oldPath, newPath)
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		bench     = flag.String("bench", "BenchmarkFrontend", "benchmark regexp to run")
		benchtime = flag.String("benchtime", "5x", "benchtime passed to go test")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("o", "", "output JSON file (default stdout)")
		in        = flag.String("in", "", "parse an existing `go test -bench` log instead of running")
		cmp       = flag.Bool("compare", false, "compare two JSON files: benchjson -compare OLD NEW")
		maxAlloc  = flag.Float64("max-alloc-regress", 10, "compare: max allowed allocs/op growth in percent")
		maxSlow   = flag.Float64("maxslow", 10, "compare: max allowed uops/s slowdown in percent")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			log.Fatal("usage: benchjson -compare OLD.json NEW.json")
		}
		os.Exit(compare(flag.Arg(0), flag.Arg(1), *maxAlloc, *maxSlow))
	}

	var (
		results map[string]Result
		err     error
	)
	if *in != "" {
		f, err2 := os.Open(*in)
		if err2 != nil {
			log.Fatal(err2)
		}
		results, err = parse(f)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	} else {
		results, err = run(*bench, *benchtime, *pkg)
	}
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines found")
	}
	f := File{Bench: *bench, BenchTime: *benchtime, Benchmarks: results}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(b); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d benchmarks)", *out, len(results))
}
