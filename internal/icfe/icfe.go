// Package icfe implements the baseline instruction-cache frontend of
// section 2.1 of the paper: a conventional fetch unit that reads one run
// of consecutive instructions per cycle from a set-associative instruction
// cache and pushes them through a variable-length decoder.
//
// Its bandwidth is limited to one basic-block-sized run per cycle and its
// latency includes decode; the paper's point is that both the TC and the
// XBC beat it. In the comparison metrics, everything the IC frontend
// supplies counts as "delivered" (it has no build/delivery distinction) so
// its bandwidth is directly comparable with the others'.
package icfe

import (
	"fmt"

	"xbc/internal/cachesim"
	"xbc/internal/frontend"
)

// Frontend is the instruction-cache fetch model. With Ports > 1 it
// models the multiple-branch-prediction proposals of [Yeh93, Cont95,
// Sezn96] the paper cites in section 2.1: a multi-ported IC supplying up
// to Ports consecutive runs per cycle, one branch prediction each.
type Frontend struct {
	cfg   frontend.Config
	icCfg cachesim.Config
	ports int
}

// New returns a single-ported IC frontend with the given timing and
// cache geometry.
func New(cfg frontend.Config, icCfg cachesim.Config) *Frontend {
	return &Frontend{cfg: cfg, icCfg: icCfg, ports: 1}
}

// NewMultiPorted returns an IC frontend fetching up to ports runs per
// cycle ([Yeh93]-style).
func NewMultiPorted(cfg frontend.Config, icCfg cachesim.Config, ports int) *Frontend {
	if ports < 1 {
		ports = 1
	}
	return &Frontend{cfg: cfg, icCfg: icCfg, ports: ports}
}

// Name identifies the model.
func (f *Frontend) Name() string {
	if f.ports > 1 {
		return fmt.Sprintf("ic:%dport", f.ports)
	}
	return "ic"
}

var _ frontend.Frontend = (*Frontend)(nil)
