// Package frontend defines what all instruction-supply models in this
// repository have in common: the simulation contract (trace-driven replay
// of a committed uop stream), the shared timing parameters, and the metrics
// the paper reports (uop miss rate, delivery-mode bandwidth).
//
// A frontend consumes the dynamic stream as the oracle of the correct path.
// Predictors steer fetch; when a prediction diverges from the oracle the
// frontend charges a re-steer penalty and resumes on the correct path, and
// the wrong-path uops are never counted. Uops supplied by the decoded
// structure (XBC, TC, ...) count as delivered; uops supplied through the
// instruction-cache/decoder path count as build-mode uops — the paper's
// "uop miss rate" is the build fraction.
package frontend

import (
	"fmt"
	"runtime/debug"

	"xbc/internal/trace"
)

// Config carries the timing parameters shared by every frontend model.
type Config struct {
	// RenamerWidth is the number of uops the renamer accepts per cycle;
	// the paper fixes it at 8, which caps sustainable bandwidth.
	RenamerWidth int
	// MispredictPenalty is the re-steer bubble, in cycles, charged when a
	// predicted direction or target diverges from the committed path.
	MispredictPenalty int
	// ICMissPenalty is charged when the build path misses in the
	// instruction cache.
	ICMissPenalty int
	// BuildInstsPerCycle bounds how many x86 instructions the build-mode
	// decoder handles per cycle (IA-32 decode is the bottleneck).
	BuildInstsPerCycle int
	// BuildUopsPerCycle bounds the uop output of the build-mode decoder.
	BuildUopsPerCycle int
	// BuildEntryPenalty is the redirect bubble charged when the frontend
	// falls out of delivery mode into the IC path (fetch re-steer plus
	// decode pipe refill) — the "high penalty for fetching from the IC"
	// the paper's conclusions cite.
	BuildEntryPenalty int
}

// DefaultConfig returns the parameters used throughout the paper's
// evaluation section.
func DefaultConfig() Config {
	return Config{
		RenamerWidth:       8,
		MispredictPenalty:  5,
		ICMissPenalty:      10,
		BuildInstsPerCycle: 3, // IA-32 era decoders sustain ~3 insts/cycle
		BuildUopsPerCycle:  6,
		BuildEntryPenalty:  4,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.RenamerWidth < 1 {
		return fmt.Errorf("frontend: renamer width %d", c.RenamerWidth)
	}
	if c.MispredictPenalty < 0 || c.ICMissPenalty < 0 {
		return fmt.Errorf("frontend: negative penalty")
	}
	if c.BuildInstsPerCycle < 1 || c.BuildUopsPerCycle < 1 {
		return fmt.Errorf("frontend: build decode width must be positive")
	}
	if c.BuildEntryPenalty < 0 {
		return fmt.Errorf("frontend: negative build entry penalty")
	}
	return nil
}

// Metrics accumulates the measurements a frontend run produces.
type Metrics struct {
	Insts uint64 // dynamic instructions consumed
	Uops  uint64 // dynamic uops consumed

	DeliveredUops uint64 // uops supplied by the decoded structure (delivery mode)
	BuildUops     uint64 // uops supplied via the IC/decode path (build mode)

	DeliveryFetches uint64 // structure accesses in delivery mode
	DeliveryCycles  uint64 // delivery cycles after renamer capping (see Finalize)
	BuildCycles     uint64 // cycles spent decoding in build mode
	PenaltyCycles   uint64 // re-steer and IC-miss stall cycles (all modes)
	DeliveryPenalty uint64 // the subset of PenaltyCycles incurred in delivery mode

	CondExec, CondMiss uint64 // conditional branches and mispredictions
	IndExec, IndMiss   uint64 // indirect jumps/calls and target mispredictions
	RetExec, RetMiss   uint64 // returns and return-target mispredictions

	StructMisses uint64 // structure lookup misses (entries into build mode)
	// ModeSwitches counts build<->delivery transitions. Only the TC and
	// the XBC count them: the decoded cache and the BBTC charge
	// BuildEntryPenalty on falling out of delivery but leave this at 0,
	// and the IC frontend has no modes.
	ModeSwitches uint64

	Extra map[string]float64 // structure-specific measurements
}

// AddExtra records a structure-specific measurement.
func (m *Metrics) AddExtra(key string, v float64) {
	if m.Extra == nil {
		m.Extra = make(map[string]float64)
	}
	m.Extra[key] = v
}

// Finalize derives DeliveryCycles from the fetch count and the renamer
// cap: a fetch takes one cycle, but sustained consumption cannot exceed
// RenamerWidth uops/cycle, so the episode is stretched when the structure
// out-supplies the renamer.
func (m *Metrics) Finalize(cfg Config) {
	renamerCycles := (m.DeliveredUops + uint64(cfg.RenamerWidth) - 1) / uint64(cfg.RenamerWidth)
	m.DeliveryCycles = m.DeliveryFetches
	if renamerCycles > m.DeliveryCycles {
		m.DeliveryCycles = renamerCycles
	}
	// Re-steer bubbles taken while in delivery mode stretch the episode.
	m.DeliveryCycles += m.DeliveryPenalty
}

// UopMissRate is the paper's headline metric: the percentage of uops
// brought from the IC path rather than the decoded structure.
func (m Metrics) UopMissRate() float64 {
	t := m.DeliveredUops + m.BuildUops
	if t == 0 {
		return 0
	}
	return 100 * float64(m.BuildUops) / float64(t)
}

// Bandwidth is delivery-mode uops per cycle (Figure 8's metric): defined
// only over hits, as in the paper.
func (m Metrics) Bandwidth() float64 {
	if m.DeliveryCycles == 0 {
		return 0
	}
	return float64(m.DeliveredUops) / float64(m.DeliveryCycles)
}

// TotalCycles sums all accounted cycles. Delivery-mode penalties are
// already folded into DeliveryCycles by Finalize, so only the build-mode
// share of PenaltyCycles is added here.
func (m Metrics) TotalCycles() uint64 {
	return m.DeliveryCycles + m.BuildCycles + (m.PenaltyCycles - m.DeliveryPenalty)
}

// OverallBandwidth is uops per cycle over the whole run including build
// mode and penalties.
func (m Metrics) OverallBandwidth() float64 {
	c := m.TotalCycles()
	if c == 0 {
		return 0
	}
	return float64(m.Uops) / float64(c)
}

// CondMissRate returns the conditional branch misprediction percentage.
func (m Metrics) CondMissRate() float64 {
	if m.CondExec == 0 {
		return 0
	}
	return 100 * float64(m.CondMiss) / float64(m.CondExec)
}

// PhaseBreakdown splits the accounted cycles into the paper's section-1
// execution phases: steady state (delivery-mode supply), transition
// (build-mode decode, ramping the structure), and stall (re-steer and
// miss bubbles). The paper's rule of thumb for full machines is roughly
// 50/30/20; a frontend-only view weighs phases by fetch cycles instead
// of instruction-window occupancy.
type PhaseBreakdown struct {
	SteadyPct     float64
	TransitionPct float64
	StallPct      float64
}

// Phases classifies the run's cycles into steady/transition/stall.
func (m Metrics) Phases() PhaseBreakdown {
	total := float64(m.TotalCycles())
	if total == 0 {
		return PhaseBreakdown{}
	}
	steady := float64(m.DeliveryCycles - m.DeliveryPenalty)
	transition := float64(m.BuildCycles)
	stall := float64(m.PenaltyCycles) // both modes' bubbles
	return PhaseBreakdown{
		SteadyPct:     100 * steady / total,
		TransitionPct: 100 * transition / total,
		StallPct:      100 * stall / total,
	}
}

// Frontend is an instruction-supply model. Every model replays a dynamic
// stream the same way: a fresh session stepped from the first record to
// the last (Run, RunSafe), or paused and resumed along the way (the
// snapshot and sampling paths).
type Frontend interface {
	// Name identifies the model ("ic", "tc", "xbc", ...).
	Name() string
	// NewSession returns a fresh cold-state session. The frontend value
	// itself stays stateless across sessions.
	NewSession() Session
}

// SessionFrontend is an alias of Frontend, kept for code that still names
// it.
type SessionFrontend = Frontend

// run replays every record of s through a fresh session of f.
func run(f Frontend, s *trace.Stream) (Metrics, error) {
	ses := f.NewSession()
	recs := s.Records()
	ses.StepTo(recs, len(recs))
	return ses.Finish()
}

// Run replays every record of s through a fresh session of f and returns
// the finalized metrics. It panics on an error the session reports (the
// XBC invariant checker's first violation); RunSafe returns it instead.
func Run(f Frontend, s *trace.Stream) Metrics {
	m, err := run(f, s)
	if err != nil {
		panic(err)
	}
	return m
}

// PanicError wraps a panic recovered from a frontend run: hostile input
// that crashed a model is degraded into an inspectable error.
type PanicError struct {
	Frontend  string
	Recovered any
	Stack     string
}

// Error renders the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("frontend %s: panic: %v", e.Frontend, e.Recovered)
}

// RunSafe is Run with panic isolation: an error the session reports is
// returned with the metrics up to it, and any panic is recovered into a
// *PanicError, so hostile input yields an error, never a crash.
func RunSafe(f Frontend, s *trace.Stream) (m Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			m = Metrics{}
			err = &PanicError{Frontend: f.Name(), Recovered: r, Stack: string(debug.Stack())}
		}
	}()
	return run(f, s)
}
