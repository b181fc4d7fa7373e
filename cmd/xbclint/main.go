// Command xbclint runs the repository's custom static-analysis suite: the
// build-time enforcement of the properties golden_test.go and the
// BENCH_*.json allocation gates check dynamically.
//
// Usage:
//
//	xbclint ./...                 # lint the whole module (what make lint runs)
//	xbclint ./internal/xbcore     # one package
//	xbclint -run nondeterm ./...  # a subset of analyzers
//	xbclint -json ./...           # structured findings, suppressed ones included
//	xbclint -sarif ./...          # SARIF 2.1.0 for code-scanning upload
//	xbclint -list                 # describe the analyzers
//
// Analyzers:
//
//	nondeterm   — no time.Now, unseeded math/rand, or map iteration in
//	              packages feeding Metrics/JSON/report output
//	hotalloc    — no per-iteration allocation constructs inside //xbc:hot
//	              loops and functions
//	enumexhaust — switches over enums exhaustive (or explicitly
//	              defaulted); enum-indexed counter arrays have name
//	              mappings
//	errdrop     — no silently discarded errors in cmd/ and the serving
//	              and sweep packages
//	floatcmp    — no exact ==/!= on floats in stats and metric comparison
//	lockorder   — consistent package-wide mutex acquisition order, no
//	              re-acquisition, no lock held at return without defer
//	ctxflow     — blocking channel/WaitGroup operations in ctx-taking
//	              functions check the context on every path; no bare
//	              sends/receives on shared channels outside select
//	goroleak    — every spawned goroutine has a reachable termination path
//	atomicmix   — variables touched via sync/atomic are never also
//	              accessed plainly without the owner's mutex
//
// Findings are suppressed line by line with a justified directive:
//
//	//xbc:ignore <analyzer> <reason>
//
// Suppression hygiene is itself enforced: a directive with no reason, a
// directive whose analyzer ran yet suppressed nothing (stale), or one
// naming an analyzer that does not exist is reported under "directive".
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xbc/internal/lint"
	"xbc/internal/lint/atomicmix"
	"xbc/internal/lint/ctxflow"
	"xbc/internal/lint/enumexhaust"
	"xbc/internal/lint/errdrop"
	"xbc/internal/lint/floatcmp"
	"xbc/internal/lint/goroleak"
	"xbc/internal/lint/hotalloc"
	"xbc/internal/lint/lockorder"
	"xbc/internal/lint/nondeterm"
)

// analyzers is the full suite, in report order.
var analyzers = []*lint.Analyzer{
	nondeterm.Analyzer,
	hotalloc.Analyzer,
	enumexhaust.Analyzer,
	errdrop.Analyzer,
	floatcmp.Analyzer,
	lockorder.Analyzer,
	ctxflow.Analyzer,
	goroleak.Analyzer,
	atomicmix.Analyzer,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("xbclint: ")
	var (
		list     = flag.Bool("list", false, "describe the analyzers and exit")
		run      = flag.String("run", "", "comma-separated analyzer names to run (default all)")
		jsonOut  = flag.Bool("json", false, "emit findings as JSON, suppressed ones included")
		sarifOut = flag.Bool("sarif", false, "emit findings as SARIF 2.1.0, suppressed ones included")
	)
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut && *sarifOut {
		log.Print("-json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	selected, err := selectAnalyzers(*run)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	// The directive audit distinguishes "stale" (analyzer ran, suppressed
	// nothing) from "unknown" (no such analyzer anywhere): hand it the
	// full registry even when -run narrows what executes.
	known := make([]string, len(analyzers))
	for i, a := range analyzers {
		known[i] = a.Name
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	var pkgs []*lint.Package
	seen := map[string]bool{}
	for _, pattern := range patterns {
		got, err := loader.LoadPattern(pattern)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		for _, p := range got {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	var finds []lint.Finding
	reported := map[string]bool{}
	for _, pkg := range pkgs {
		var applicable []*lint.Analyzer
		for _, a := range selected {
			if a.Match == nil || a.Match(pkg.Path) {
				applicable = append(applicable, a)
			}
		}
		for _, f := range lint.RunAnalyzers(pkg, applicable, known) {
			// Directive hygiene findings can surface once per overlapping
			// pattern; keep each unique finding once.
			key := f.String()
			if !reported[key] {
				reported[key] = true
				finds = append(finds, f)
			}
		}
	}
	sortFindings(finds)
	for i := range finds {
		finds[i].Pos.Filename = relativize(cwd, finds[i].Pos.Filename)
	}

	var unsuppressed int
	for _, f := range finds {
		if !f.Suppressed {
			unsuppressed++
		}
	}

	switch {
	case *jsonOut:
		writeJSON(os.Stdout, finds)
	case *sarifOut:
		writeSARIF(os.Stdout, finds)
	default:
		for _, f := range finds {
			if !f.Suppressed {
				fmt.Println(f.Diagnostic.String())
			}
		}
	}
	if unsuppressed > 0 {
		log.Printf("%d finding(s)", unsuppressed)
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -run flag.
func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	if names == "" {
		return analyzers, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// sortFindings orders findings by file, line, column, analyzer for
// stable output, matching lint.SortDiagnostics.
func sortFindings(finds []lint.Finding) {
	sort.Slice(finds, func(i, j int) bool {
		a, b := finds[i], finds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// relativize shortens finding paths relative to the working directory.
func relativize(cwd, filename string) string {
	if rel, err := filepath.Rel(cwd, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}

// jsonFinding is the -json output shape, one object per finding.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

func writeJSON(w *os.File, finds []lint.Finding) {
	out := make([]jsonFinding, 0, len(finds))
	for _, f := range finds {
		out = append(out, jsonFinding{
			File:       f.Pos.Filename,
			Line:       f.Pos.Line,
			Column:     f.Pos.Column,
			Analyzer:   f.Analyzer,
			Message:    f.Message,
			Suppressed: f.Suppressed,
			Reason:     f.Reason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

// Minimal SARIF 2.1.0 document: enough structure for GitHub code
// scanning to annotate PR diffs, nothing more.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	Level        string             `json:"level"`
	Message      sarifText          `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

func writeSARIF(w *os.File, finds []lint.Finding) {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{ID: "directive", ShortDescription: sarifText{
		Text: "suppression hygiene: malformed, stale, or unknown //xbc:ignore directives"}})

	results := make([]sarifResult, 0, len(finds))
	for _, f := range finds {
		r := sarifResult{
			RuleID:  f.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.Pos.Filename)},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		}
		if f.Suppressed {
			r.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: f.Reason}}
		}
		results = append(results, r)
	}
	doc := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "xbclint", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}
