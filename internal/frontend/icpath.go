package frontend

import (
	"math/bits"

	"xbc/internal/cachesim"
	"xbc/internal/isa"
	"xbc/internal/trace"
)

// ICPath models the conventional fetch-and-decode path: an instruction
// cache feeding a variable-length decoder. The IC frontend uses it as its
// whole supply; the TC, BBTC, decoded-cache and XBC frontends use it as
// their build-mode path.
type ICPath struct {
	cfg       Config
	ic        *cachesim.Table[struct{}] // tags only: presence is all fetch needs
	lineShift uint

	Accesses uint64
	Misses   uint64
}

// DefaultICConfig is the instruction-cache geometry used for the build
// path throughout the evaluation: 64KB, 4-way, 32-byte lines.
func DefaultICConfig() cachesim.Config {
	return cachesim.Config{Sets: 512, Ways: 4, LineBytes: 32}
}

// NewICPath builds the fetch path with the given frontend timing and IC
// geometry. It panics on an invalid geometry.
func NewICPath(cfg Config, icCfg cachesim.Config) *ICPath {
	if err := icCfg.Validate(); err != nil {
		panic(err)
	}
	return &ICPath{
		cfg:       cfg,
		ic:        cachesim.NewTable[struct{}](icCfg.Sets, icCfg.Ways, 0),
		lineShift: uint(bits.TrailingZeros(uint(icCfg.LineBytes))),
	}
}

func (p *ICPath) lineOf(ip isa.Addr) uint32 { return uint32(ip) >> p.lineShift }

// touch accesses the line holding ip: a hit refreshes its LRU stamp, a
// miss fills it over the LRU way. It reports whether the line hit.
func (p *ICPath) touch(ip isa.Addr) bool {
	line := p.lineOf(ip)
	if p.ic.Lookup(line) != nil {
		return true
	}
	p.ic.Insert(line)
	return false
}

// Group is one decode group: the instructions fetched and decoded in a
// single build-path cycle.
type Group struct {
	N     int // instructions consumed
	Uops  int // uops produced
	Stall int // extra stall cycles (IC miss)
}

// FetchGroup forms one decode group starting at recs[i]: consecutive
// instructions from one cache line, bounded by the decoder's instruction
// and uop widths, ending after the first taken transfer. It charges the
// instruction cache and returns the group.
func (p *ICPath) FetchGroup(recs []trace.Rec, i int) Group {
	g := Group{}
	if i >= len(recs) {
		return g
	}
	first := recs[i]
	p.Accesses++
	if !p.touch(first.IP) {
		p.Misses++
		g.Stall += p.cfg.ICMissPenalty
	}
	line := p.lineOf(first.IP)
	for i+g.N < len(recs) {
		r := recs[i+g.N]
		if g.N > 0 && p.lineOf(r.IP) != line {
			break // next instruction is on another line
		}
		if g.N >= p.cfg.BuildInstsPerCycle || g.Uops+int(r.NumUops) > p.cfg.BuildUopsPerCycle {
			break // decoder width exhausted
		}
		g.N++
		g.Uops += int(r.NumUops)
		if r.Next != r.FallThrough() {
			break // taken transfer ends the fetch group
		}
	}
	if g.N == 0 {
		// A single over-wide instruction still decodes (microcode-style),
		// one per cycle.
		g.N = 1
		g.Uops = int(recs[i].NumUops)
	}
	return g
}

// MissRate returns the instruction-cache miss percentage.
func (p *ICPath) MissRate() float64 {
	if p.Accesses == 0 {
		return 0
	}
	return 100 * float64(p.Misses) / float64(p.Accesses)
}
