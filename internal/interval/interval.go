// Package interval estimates whole-processor performance from frontend
// metrics using first-order interval analysis — the analytical framework
// behind the paper's section-1 discussion of steady-state, transition and
// stall phases (its [Mich99] citation).
//
// The model is deliberately simple and fully documented: execution is a
// sequence of intervals separated by disruptive events (branch
// mispredictions and instruction-supply misses). Between events the core
// sustains min(issue width, frontend bandwidth) uops/cycle; each event
// inserts a bubble whose length depends on the pipeline and window
// geometry. The absolute IPC numbers are estimates; their value is
// *comparative* — how much a better frontend is worth to the same core,
// which is exactly the question the paper's introduction frames.
package interval

import (
	"fmt"

	"xbc/internal/frontend"
)

// CoreConfig describes the hypothetical execution core.
type CoreConfig struct {
	// IssueWidth is the sustained uop issue rate of the core.
	IssueWidth int
	// WindowSize is the instruction window (ROB) capacity in uops; a
	// branch misprediction drains it.
	WindowSize int
	// FrontPipeDepth is the fetch-to-rename depth in cycles; it sets the
	// refill part of a misprediction bubble.
	FrontPipeDepth int
}

// DefaultCore returns a 2000-era wide core: 8-issue, 128-uop window,
// 5-stage frontend.
func DefaultCore() CoreConfig {
	return CoreConfig{IssueWidth: 8, WindowSize: 128, FrontPipeDepth: 5}
}

// Validate reports the first problem with the configuration.
func (c CoreConfig) Validate() error {
	if c.IssueWidth < 1 || c.WindowSize < 1 || c.FrontPipeDepth < 0 {
		return fmt.Errorf("interval: bad core config %+v", c)
	}
	return nil
}

// Estimate is the interval-analysis result.
type Estimate struct {
	UopsPerCycle  float64 // estimated sustained uop throughput
	InstsPerCycle float64 // same, in instructions

	// Cycle budget decomposition (per 1000 uops).
	BaseCPKu   float64 // steady-state supply/issue cycles
	BranchCPKu float64 // misprediction bubbles
	SupplyCPKu float64 // build-mode and structure-miss cycles
	TotalCPKu  float64

	// ipcVariance is the uop-weighted variance of per-interval throughput
	// when the estimate was combined from sampled intervals; unexported so
	// the serialized shape is identical for full and sampled fidelities
	// (IPCStdDev exposes its square root).
	ipcVariance float64
}

// FromMetrics runs the interval model over one frontend run's metrics.
//
// Steady state: the core retires at min(IssueWidth, frontend delivery
// bandwidth). Branch mispredictions each cost the frontend re-steer
// (already inside the metrics' penalty cycles) plus pipeline refill and
// window re-ramp (WindowSize / 2*IssueWidth on average, [Mich99]'s
// triangular ramp). Supply misses cost their build-mode decode cycles.
func FromMetrics(m frontend.Metrics, core CoreConfig) (Estimate, error) {
	if err := core.Validate(); err != nil {
		return Estimate{}, err
	}
	if m.Uops == 0 {
		return Estimate{}, fmt.Errorf("interval: empty metrics")
	}
	issue := float64(core.IssueWidth)
	// Penalty-free supply bandwidth: Metrics.Bandwidth already folds
	// re-steer bubbles into the delivery cycles, and those bubbles are
	// charged separately below — using it directly would double-count.
	supplyBW := issue
	if clean := m.DeliveryCycles - m.DeliveryPenalty; clean > 0 && m.DeliveredUops > 0 {
		supplyBW = float64(m.DeliveredUops) / float64(clean)
	}
	if supplyBW > issue {
		supplyBW = issue
	}

	uops := float64(m.Uops)
	baseCycles := uops / minF(issue, supplyBW)

	// Every mispredicted transfer (direction, indirect, return) drains
	// the window and refills the pipe.
	mispredicts := float64(m.CondMiss + m.IndMiss + m.RetMiss)
	rampCycles := float64(core.WindowSize) / (2 * issue)
	branchCycles := mispredicts * (float64(core.FrontPipeDepth) + rampCycles)

	// Supply stalls: build-mode decode plus the frontend's own penalty
	// bubbles (IC misses, set searches, re-steers already counted there).
	supplyCycles := float64(m.BuildCycles) + float64(m.PenaltyCycles)

	total := baseCycles + branchCycles + supplyCycles
	est := Estimate{
		UopsPerCycle:  uops / total,
		InstsPerCycle: float64(m.Insts) / total,
		BaseCPKu:      1000 * baseCycles / uops,
		BranchCPKu:    1000 * branchCycles / uops,
		SupplyCPKu:    1000 * supplyCycles / uops,
		TotalCPKu:     1000 * total / uops,
	}
	return est, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
