// Package xbcore implements the paper's contribution: the eXtended Block
// Cache and its satellite structures.
//
// The XBC stores extended blocks — multiple-entry single-exit uop runs
// ending on a conditional branch, an indirect branch, a return or a call —
// indexed by the address of their *ending* instruction and stored in
// reverse order across a banked data array (4 banks x 4 uops, 2 ways).
// The XBTB (with the XBP direction predictor, the XiBTB indirect-pointer
// table and the XRSB return stack) is the only way in: it supplies
// (XB_IP, variant, OFFSET) pointers to the next blocks. The XFU fill unit
// builds blocks in build mode, handling the three tag-collision cases of
// section 3.3 (containment, head extension, and complex XBs with shared
// suffix chunks). Branch promotion (section 3.8), set search (3.9), and
// the placement policies of section 3.10 are all implemented and can be
// disabled individually for ablation studies.
package xbcore

import (
	"fmt"

	"xbc/internal/bpred"
	"xbc/internal/isa"
)

// Config describes an XBC instance. Use DefaultConfig for the paper's
// configuration and flip feature flags for ablations.
type Config struct {
	// Geometry. The fetch width is Banks*BankUops uops (16 in the paper);
	// Quota must equal it.
	Banks    int // data array banks (4)
	BankUops int // uops per bank line (4)
	Ways     int // ways per bank (2)
	Sets     int // sets, power of two

	// Quota is the maximum XB length in uops (16).
	Quota int

	// XBTB geometry: XBTBSets*XBTBWays entries (8K in the paper).
	XBTBSets int
	XBTBWays int

	// XRSBDepth is the return-pointer stack depth.
	XRSBDepth int

	// Feature flags (all true in the paper's main configuration).
	Promotion        bool // branch promotion via 7-bit bias counters
	ComplexXB        bool // same-suffix/different-prefix sharing (case 3)
	SetSearch        bool // repair stale bank pointers by searching the set
	SmartPlacement   bool // build placement avoids the previous XB's banks
	DynamicPlacement bool // delivery-mode re-placement of conflicting lines

	// XBsPerCycle is the prediction bandwidth: with n predictions per
	// cycle the XBTB supplies pointers to n XBs per cycle (section 3.1).
	// The paper evaluates n=2; 1 disables multi-XB fetch.
	XBsPerCycle int

	// Oracle disables all direction/target misprediction effects — a
	// limit study isolating the structural (capacity + pointer-reach)
	// misses from the prediction-induced ones.
	Oracle bool

	// XBP selects the direction predictor: the paper's 16-bit GSHARE
	// (default), a bimodal table, or McFarling's tournament.
	XBP XBPKind

	// NextXB enables next-XB prediction ([Jaco97]-style next-trace
	// prediction, which the paper cites as a way around the
	// one-prediction-per-XB limit): a table keyed by the previous block's
	// identity and a short path history predicts the successor pointer
	// directly, with the XBP/XBTB chain as fallback.
	NextXB bool

	// Check enables the cycle-level invariant checker: after every
	// committed XB the run verifies the block quota, the bank-mask/offset
	// consistency of the touched cache entry, and the wired XBTB pointers;
	// a full cache/XBTB sweep runs periodically and at end of stream. A
	// violation ends the run: the session's Finish returns it as an error
	// (frontend.Run panics with it, frontend.RunSafe returns it). Off in
	// production runs; intended for tests and hostile-input hardening.
	Check bool

	// Promotion thresholds on the 7-bit counter (0..127). A branch
	// promotes taken at >= PromoteHi, promotes not-taken at <= PromoteLo
	// (the paper's 126/1 = at least 99.2% biased). DemoteSlack is the
	// violation budget: a promoted branch de-promotes after that many
	// violations without an intervening long conforming run.
	PromoteHi   uint8
	PromoteLo   uint8
	DemoteSlack uint8
}

// DefaultConfig returns the paper's XBC scaled to the given uop budget:
// 4 banks x 4 uops, 2-way banks, sets = budget/(banks*bankUops*ways),
// 8K-entry XBTB, all features on.
func DefaultConfig(uopBudget int) Config {
	c := Config{
		Banks:            4,
		BankUops:         4,
		Ways:             2,
		Quota:            16,
		XBTBSets:         2048,
		XBTBWays:         4,
		XRSBDepth:        16,
		Promotion:        true,
		ComplexXB:        true,
		SetSearch:        true,
		SmartPlacement:   true,
		DynamicPlacement: true,
		XBsPerCycle:      2,
		PromoteHi:        126,
		PromoteLo:        1,
		DemoteSlack:      3,
	}
	sets := uopBudget / (c.Banks * c.BankUops * c.Ways)
	if sets < 1 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	c.Sets = p
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Banks < 1 || c.BankUops < 1 || c.Ways < 1:
		return fmt.Errorf("xbcore: bad geometry banks=%d bankUops=%d ways=%d", c.Banks, c.BankUops, c.Ways)
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("xbcore: sets %d must be a positive power of two", c.Sets)
	case c.Quota != c.Banks*c.BankUops:
		return fmt.Errorf("xbcore: quota %d must equal fetch width %d", c.Quota, c.Banks*c.BankUops)
	case c.XBTBSets <= 0 || c.XBTBSets&(c.XBTBSets-1) != 0:
		return fmt.Errorf("xbcore: XBTB sets %d must be a positive power of two", c.XBTBSets)
	case c.XBTBWays < 1:
		return fmt.Errorf("xbcore: XBTB ways %d", c.XBTBWays)
	case c.XRSBDepth < 1:
		return fmt.Errorf("xbcore: XRSB depth %d", c.XRSBDepth)
	case c.PromoteHi <= c.PromoteLo:
		return fmt.Errorf("xbcore: promotion thresholds hi=%d lo=%d", c.PromoteHi, c.PromoteLo)
	case c.Promotion && c.DemoteSlack < 1:
		return fmt.Errorf("xbcore: promotion enabled with zero violation budget")
	case c.XBsPerCycle < 1:
		return fmt.Errorf("xbcore: XBsPerCycle %d", c.XBsPerCycle)
	}
	return nil
}

// UopCapacity returns the data array's uop budget.
func (c Config) UopCapacity() int { return c.Sets * c.Banks * c.BankUops * c.Ways }

// MaxOrders returns how many bank lines the longest XB spans.
func (c Config) MaxOrders() int { return (c.Quota + c.BankUops - 1) / c.BankUops }

// XBPKind selects the XBP direction predictor implementation.
type XBPKind int

const (
	// XBPGshare is the paper's 16-bit-history GSHARE.
	XBPGshare XBPKind = iota
	// XBPBimodal is a plain per-address 2-bit counter table.
	XBPBimodal
	// XBPTournament is McFarling's combining predictor.
	XBPTournament
)

// String names the predictor kind.
func (k XBPKind) String() string {
	switch k {
	case XBPGshare:
		return "gshare"
	case XBPBimodal:
		return "bimodal"
	case XBPTournament:
		return "tournament"
	default:
		return "unknown"
	}
}

// newXBP instantiates the configured direction predictor.
func (c Config) newXBP() interface {
	Predict(ip isa.Addr) bool
	Update(ip isa.Addr, taken bool)
	Reset()
} {
	switch c.XBP {
	case XBPBimodal:
		return bpred.NewBimodal(14)
	case XBPTournament:
		return bpred.NewTournament(16, 13)
	default:
		return bpred.NewGshare(16)
	}
}
