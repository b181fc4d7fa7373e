// Package xbc is a library reproduction of "eXtended Block Cache"
// (Jourdan, Rappoport, Almog, Erez, Yoaz, Ronen — Intel; HPCA 2000): a
// trace-driven frontend simulator with five instruction-supply models —
// instruction cache, decoded (uop) cache, trace cache, block-based trace
// cache, and the paper's contribution, the eXtended Block Cache — plus a
// deterministic synthetic-workload generator standing in for the paper's
// proprietary Intel traces, and an experiment harness regenerating every
// figure of the paper's evaluation.
//
// # Quick start
//
//	w, _ := xbc.WorkloadByName("gcc")
//	stream, _ := xbc.Generate(w, 1_000_000) // 1M dynamic uops
//	fe := xbc.NewXBCFrontend(32 * 1024)     // 32K-uop XBC, paper config
//	metrics := xbc.Run(fe, stream)
//	fmt.Printf("miss %.2f%%, bandwidth %.2f uops/cycle\n",
//	    metrics.UopMissRate(), metrics.Bandwidth())
//
// The package is a facade over the internal implementation; everything a
// user needs is exported here (or reachable through the exported aliases).
package xbc

import (
	"context"
	"io"
	"os"
	"os/signal"
	"syscall"

	"xbc/internal/bbtc"
	"xbc/internal/decoded"
	"xbc/internal/experiments"
	"xbc/internal/frontend"
	"xbc/internal/icfe"
	"xbc/internal/interval"
	"xbc/internal/planner"
	"xbc/internal/program"
	"xbc/internal/stats"
	"xbc/internal/store"
	"xbc/internal/tcache"
	"xbc/internal/trace"
	"xbc/internal/workload"
	"xbc/internal/xbcore"
)

// Core simulation types.
type (
	// Stream is an in-memory dynamic instruction trace, replayable any
	// number of times.
	Stream = trace.Stream
	// Rec is one dynamic instruction record.
	Rec = trace.Rec
	// Metrics carries the measurements of one frontend run.
	Metrics = frontend.Metrics
	// Frontend is any instruction-supply model.
	Frontend = frontend.Frontend
	// FrontendConfig carries shared timing parameters (renamer width,
	// penalties, build decode width).
	FrontendConfig = frontend.Config
	// Workload names one synthetic trace and the program spec behind it.
	Workload = workload.Workload
	// Suite identifies one of the three trace suites.
	Suite = workload.Suite
	// ProgramSpec parameterizes the synthetic program generator.
	ProgramSpec = program.Spec
	// XBCConfig is the extended block cache configuration (geometry and
	// feature flags).
	XBCConfig = xbcore.Config
	// TCConfig is the trace cache configuration.
	TCConfig = tcache.Config
	// Table is a renderable result table (plain text or CSV).
	Table = stats.Table
	// Histogram is a bounded integer histogram.
	Histogram = stats.Histogram
	// BlockKind selects a Figure-1 segmentation rule.
	BlockKind = trace.BlockKind
	// ExperimentOptions parameterizes the figure reproductions.
	ExperimentOptions = experiments.Options
)

// Suite identifiers.
const (
	SPECint = workload.SPECint
	SYSmark = workload.SYSmark
	Games   = workload.Games
)

// Figure-1 segmentation rules.
const (
	BasicBlock = trace.BasicBlock
	XB         = trace.XB
	XBPromoted = trace.XBPromoted
	DualXB     = trace.DualXB
)

// Workloads returns the 21 synthetic workloads (8 SPECint95-flavoured, 8
// SYSmark32-flavoured, 5 game-flavoured).
func Workloads() []Workload { return workload.All() }

// WorkloadByName returns the named workload.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// WorkloadNames returns all 21 workload names in suite order.
func WorkloadNames() []string { return workload.Names() }

// MicroWorkloads returns small corner-case workloads, each stressing one
// frontend mechanism (straight-line code, loop nests, call traffic,
// switches, monotonic branches). Not part of the paper's evaluation set.
func MicroWorkloads() []Workload { return workload.Micro() }

// MicroWorkloadByName returns the named micro workload.
func MicroWorkloadByName(name string) (Workload, bool) { return workload.MicroByName(name) }

// Generate builds a workload's program and walks it until at least
// minUops dynamic uops have been produced. Identical inputs produce
// bit-identical streams.
func Generate(w Workload, minUops uint64) (*Stream, error) {
	return trace.Generate(w.Spec, minUops)
}

// GenerateSpec is Generate for a custom program spec.
func GenerateSpec(spec ProgramSpec, minUops uint64) (*Stream, error) {
	return trace.Generate(spec, minUops)
}

// DefaultProgramSpec returns a mid-sized SPECint-flavoured spec to
// customize.
func DefaultProgramSpec(name string, seed int64) ProgramSpec {
	return program.DefaultSpec(name, seed)
}

// WriteTrace serializes a stream in the binary .xtr format.
func WriteTrace(w io.Writer, s *Stream) error { return trace.Write(w, s) }

// ReadTrace deserializes a stream written by WriteTrace.
func ReadTrace(r io.Reader) (*Stream, error) { return trace.Read(r) }

// Run replays every record of the stream through a fresh session of f and
// returns the finalized metrics. It panics on an invariant violation of a
// checked XBC; RunSafe returns that as an error instead.
func Run(f Frontend, s *Stream) Metrics { return frontend.Run(f, s) }

// DefaultFrontendConfig returns the paper's timing parameters (renamer
// width 8, the penalties used throughout the evaluation).
func DefaultFrontendConfig() FrontendConfig { return frontend.DefaultConfig() }

// DefaultXBCConfig returns the paper's XBC scaled to a uop budget:
// 4 banks x 4 uops, 2-way banks, 8K-entry XBTB, all features enabled.
func DefaultXBCConfig(uopBudget int) XBCConfig { return xbcore.DefaultConfig(uopBudget) }

// DefaultTCConfig returns the paper's trace cache: 4-way, 16-uop lines,
// at most 3 conditional branches per trace.
func DefaultTCConfig(uopBudget int) TCConfig { return tcache.DefaultConfig(uopBudget) }

// NewXBCFrontend returns an XBC frontend with the paper's configuration
// at the given uop budget.
func NewXBCFrontend(uopBudget int) Frontend {
	return xbcore.New(xbcore.DefaultConfig(uopBudget), frontend.DefaultConfig())
}

// NewXBCFrontendWith returns an XBC frontend with explicit cache and
// timing configuration (use for ablations).
func NewXBCFrontendWith(cfg XBCConfig, fe FrontendConfig) Frontend {
	return xbcore.New(cfg, fe)
}

// NewTraceCacheFrontend returns the paper's TC baseline at the given uop
// budget.
func NewTraceCacheFrontend(uopBudget int) Frontend {
	return tcache.New(tcache.DefaultConfig(uopBudget), frontend.DefaultConfig())
}

// NewTraceCacheFrontendWith returns a TC frontend with explicit
// configuration.
func NewTraceCacheFrontendWith(cfg TCConfig, fe FrontendConfig) Frontend {
	return tcache.New(cfg, fe)
}

// NewICFrontend returns the conventional instruction-cache frontend
// (64KB, 4-way, 32-byte lines).
func NewICFrontend() Frontend {
	return icfe.New(frontend.DefaultConfig(), frontend.DefaultICConfig())
}

// NewMultiPortedICFrontend returns an IC frontend fetching up to ports
// consecutive runs per cycle — the multiple-branch-prediction IC designs
// ([Yeh93, Cont95, Sezn96]) the paper cites in section 2.1.
func NewMultiPortedICFrontend(ports int) Frontend {
	return icfe.NewMultiPorted(frontend.DefaultConfig(), frontend.DefaultICConfig(), ports)
}

// NewDecodedFrontend returns the decoded (uop) cache frontend of section
// 2.2 at the given uop budget.
func NewDecodedFrontend(uopBudget int) Frontend {
	return decoded.New(decoded.DefaultConfig(uopBudget), frontend.DefaultConfig())
}

// NewBBTCFrontend returns the block-based trace cache of section 2.4 at
// the given uop budget.
func NewBBTCFrontend(uopBudget int) Frontend {
	return bbtc.New(bbtc.DefaultConfig(uopBudget), frontend.DefaultConfig())
}

// MeasureBias scans a stream and accumulates per-branch outcome counts
// (used by the Figure-1 promotion segmentation).
func MeasureBias(s *Stream) *trace.BranchBias { return trace.MeasureBias(s) }

// SegmentLengths cuts a stream into blocks of the given kind under the
// 16-uop quota and returns the length histogram (Figure 1's analysis).
// bias may be nil except for XBPromoted.
func SegmentLengths(s *Stream, kind BlockKind, bias *trace.BranchBias) *Histogram {
	return trace.SegmentLengths(s, kind, bias)
}

// Experiment reproductions: one call per figure of the paper, plus the
// extra studies. Each returns a renderable table; the Figure functions
// also expose raw values.

// Figure1 reproduces the block length distribution (paper means: basic
// block 7.7, XB 8.0, XB+promotion 10.0, dual XB 12.7 uops).
func Figure1(o ExperimentOptions) (*experiments.Fig1Result, error) { return experiments.Figure1(o) }

// Figure8 reproduces the per-trace XBC vs TC bandwidth comparison.
func Figure8(o ExperimentOptions) (*experiments.Fig8Result, error) { return experiments.Figure8(o) }

// Figure9 reproduces the miss rate vs cache size sweep.
func Figure9(o ExperimentOptions) (*experiments.Fig9Result, error) { return experiments.Figure9(o) }

// Figure10 reproduces the miss rate vs associativity sweep.
func Figure10(o ExperimentOptions) (*experiments.Fig10Result, error) { return experiments.Figure10(o) }

// Redundancy reproduces the in-text TC-vs-XBC redundancy comparison.
func Redundancy(o ExperimentOptions) (*Table, error) { return experiments.Redundancy(o) }

// FrontendLandscape compares all five supply models at one budget.
func FrontendLandscape(o ExperimentOptions) (*Table, error) { return experiments.Frontends(o) }

// Ablation measures the XBC feature flags one at a time.
func Ablation(o ExperimentOptions) (*Table, error) { return experiments.Ablation(o) }

// PathAssociativity contrasts the baseline TC, the path-associative TC
// variant the paper cites ([Jaco97]), and the XBC.
func PathAssociativity(o ExperimentOptions) (*Table, error) {
	return experiments.PathAssociativity(o)
}

// XBTBSweep varies the XBTB entry count around the paper's fixed 8K.
func XBTBSweep(o ExperimentOptions) (*Table, error) { return experiments.XBTBSweep(o) }

// RenamerSweep varies the renamer width, exposing fetch-side bandwidth
// differences the paper's 8-wide renamer hides.
func RenamerSweep(o ExperimentOptions) (*Table, error) { return experiments.RenamerSweep(o) }

// ContextSwitch interleaves workload pairs in quanta and compares miss
// rates against solo runs.
func ContextSwitch(o ExperimentOptions) (*Table, error) { return experiments.ContextSwitch(o) }

// Phases reports the steady/transition/stall cycle breakdown per
// structure (the paper's section-1 phase discussion).
func Phases(o ExperimentOptions) (*Table, error) { return experiments.Phases(o) }

// IPCEstimate translates frontend metrics into whole-core IPC estimates
// via first-order interval analysis ([Mich99]).
func IPCEstimate(o ExperimentOptions) (*Table, error) { return experiments.IPCEstimate(o) }

// CoreConfig describes the hypothetical execution core for interval
// analysis.
type CoreConfig = interval.CoreConfig

// IntervalEstimate is the interval-analysis result for one run.
type IntervalEstimate = interval.Estimate

// DefaultCore returns the default interval-analysis core (8-issue,
// 128-uop window, 5-deep frontend pipe).
func DefaultCore() CoreConfig { return interval.DefaultCore() }

// EstimateIPC runs the interval model over one frontend run's metrics.
func EstimateIPC(m Metrics, core CoreConfig) (IntervalEstimate, error) {
	return interval.FromMetrics(m, core)
}

// Interleave merges streams round-robin in quanta of roughly quantumUops,
// modelling context switches between processes sharing one frontend.
func Interleave(quantumUops int, streams ...*Stream) (*Stream, error) {
	return trace.Interleave(quantumUops, streams...)
}

// WorkingSet measures the distinct uops touched per window of the given
// sizes — which cache capacities a workload pressures.
func WorkingSet(s *Stream, windows ...int) []trace.WorkingSetPoint {
	return trace.WorkingSet(s, windows...)
}

// Plot is a plain-text chart renderer (used by Figure 9/10 results).
type Plot = stats.Plot

// Summarize profiles a stream: dynamic mix, footprint, XB lengths.
func Summarize(s *Stream) trace.Summary { return trace.Summarize(s) }

// Summary is a structural stream profile.
type Summary = trace.Summary

// DefaultExperimentOptions returns the evaluation defaults (all 21
// workloads, 1M uops each, 32K budget, size sweep 8-64K).
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Robustness layer: panic-isolated runs, invariant checking, resumable
// figure runs, and fault-injected streams for hardening tests.

// PanicError wraps a panic recovered by RunSafe: which frontend crashed,
// the recovered value, and the goroutine stack.
type PanicError = frontend.PanicError

// RunSafe is Run with panic isolation: hostile input yields an error,
// never a crash, and an invariant violation of a checked XBC is returned
// as an error.
func RunSafe(f Frontend, s *Stream) (Metrics, error) { return frontend.RunSafe(f, s) }

// NewCheckedXBCFrontend returns an XBC frontend with cycle-level
// invariant checking enabled; run it through RunSafe to observe
// violations as errors.
func NewCheckedXBCFrontend(uopBudget int) Frontend {
	cfg := xbcore.DefaultConfig(uopBudget)
	cfg.Check = true
	return xbcore.New(cfg, frontend.DefaultConfig())
}

// Store is the crash-safe result store: a figure run on it records each
// cell as it finishes and serves every cell it already holds, including
// results xbcd computed. Wire it into ExperimentOptions.Store.
type Store = store.Store

// OpenStore opens (or creates) the store in dir, fsyncing every write.
func OpenStore(dir string) (*Store, error) { return store.Open(store.Options{Dir: dir}) }

// PlanTally accumulates sweep-planner accounting (planned / deduped /
// reused / simulated / failed / aborted, and each failed cell) across
// experiment calls. Wire it into ExperimentOptions.Plan.
type PlanTally = planner.Tally

// NotifyContext returns a context cancelled on SIGINT/SIGTERM: wire it
// into ExperimentOptions.Ctx for graceful mid-sweep cancellation (cells
// in flight finish and are reported; queued cells abort). Calling the
// returned stop function restores the default signal behaviour.
func NotifyContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// TruncateStream returns a copy of s cut to its first n records —
// fault-injection input modelling a truncated trace file.
func TruncateStream(s *Stream, n int) *Stream { return trace.Truncate(s, n) }

// BitFlipStream returns a copy of s with pseudo-random field corruption
// at the given per-record rate — fault-injection input modelling bit rot.
func BitFlipStream(s *Stream, seed int64, rate float64) *Stream {
	return trace.BitFlip(s, seed, rate)
}

// DiscontinuousStream returns a copy of s with every stride-th record
// dropped — fault-injection input modelling gaps in a captured trace.
func DiscontinuousStream(s *Stream, stride int) *Stream {
	return trace.Discontinuities(s, stride)
}
