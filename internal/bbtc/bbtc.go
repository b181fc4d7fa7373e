// Package bbtc implements the block-based trace cache of section 2.4
// [Blac99]: traces are recorded as sequences of *block pointers* rather
// than uop copies. The pointers index a separate decoded block cache, so
// redundancy moves from uops (expensive) to pointers (cheap), at the cost
// of extra fragmentation from the finer storage granularity.
//
// The model has two structures:
//
//   - a block cache of decoded basic blocks (up to BlockUops uops, cut at
//     any control flow), keyed by block starting address;
//   - a trace table whose entries hold up to PtrsPerTrace block pointers,
//     keyed by the first block's starting address.
//
// Delivery fetches one pointer-trace per cycle, reading all its blocks
// from the (multi-ported) block cache; a missing block or a path
// divergence ends the supply.
package bbtc

import (
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/trace"
)

// Config describes the BBTC geometry.
type Config struct {
	// Block cache.
	BlockSets int // power of two
	BlockWays int
	BlockUops int // uop capacity per block (8 in [Blac99]-style configs)

	// Trace table.
	TraceSets    int // power of two
	TraceWays    int
	PtrsPerTrace int
}

// DefaultConfig sizes the block cache to the given uop budget and pairs it
// with a 4-way trace table holding 4-pointer traces.
func DefaultConfig(uopBudget int) Config {
	c := Config{BlockWays: 4, BlockUops: 8, TraceWays: 4, PtrsPerTrace: 4}
	sets := uopBudget / (c.BlockWays * c.BlockUops)
	if sets < 1 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	c.BlockSets = p
	// One trace-table entry per two block-cache lines is a reasonable
	// balance (pointers are cheap).
	ts := c.BlockSets / 2
	if ts < 1 {
		ts = 1
	}
	c.TraceSets = ts
	return c
}

// Validate reports the first problem with the geometry.
func (c Config) Validate() error {
	if c.BlockSets <= 0 || c.BlockSets&(c.BlockSets-1) != 0 {
		return fmt.Errorf("bbtc: block sets %d must be a positive power of two", c.BlockSets)
	}
	if c.TraceSets <= 0 || c.TraceSets&(c.TraceSets-1) != 0 {
		return fmt.Errorf("bbtc: trace sets %d must be a positive power of two", c.TraceSets)
	}
	if c.BlockWays < 1 || c.BlockUops < 1 || c.TraceWays < 1 || c.PtrsPerTrace < 1 {
		return fmt.Errorf("bbtc: bad geometry %+v", c)
	}
	return nil
}

// UopCapacity returns the block cache's uop budget.
func (c Config) UopCapacity() int { return c.BlockSets * c.BlockWays * c.BlockUops }

type blockInst struct {
	ip      isa.Addr
	numUops uint8
	class   isa.Class
}

// block is the payload of one way of the block cache, tagged by the
// block's start IP. A trace-table way's payload is its member blocks'
// start IPs, tagged by the first one's.
type block struct {
	uops  int
	insts []blockInst
}

// Frontend is the block-based trace cache supply model.
type Frontend struct {
	cfg   Config
	fecfg frontend.Config
}

// New returns a BBTC frontend.
func New(cfg Config, fecfg frontend.Config) *Frontend {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Frontend{cfg: cfg, fecfg: fecfg}
}

// Name identifies the model.
func (f *Frontend) Name() string { return "bbtc" }

// deliver supplies uops for the pointer trace ptrs, reading member blocks
// from the block cache.
//
//xbc:hot
func (s *session) deliver(recs []trace.Rec, i int, ptrs []isa.Addr) int {
	m := &s.M
	m.DeliveryFetches++
	for _, bip := range ptrs {
		if i >= len(recs) || recs[i].IP != bip {
			return i // path divergence at block granularity
		}
		b := s.blocks.Lookup(uint32(bip))
		if b == nil {
			return i // pointer to an evicted block: partial supply
		}
		for _, e := range b.insts {
			if i >= len(recs) || recs[i].IP != e.ip {
				return i
			}
			r := recs[i]
			m.Insts++
			m.Uops += uint64(r.NumUops)
			m.DeliveredUops += uint64(r.NumUops)
			i++
			if r.Class == isa.Seq {
				continue
			}
			out := s.Preds.Resolve(r, m)
			if out.Mispredicted {
				m.PenaltyCycles += uint64(s.f.fecfg.MispredictPenalty)
				m.DeliveryPenalty += uint64(s.f.fecfg.MispredictPenalty)
				return i
			}
		}
	}
	return i
}

// build decodes blocks through the IC path, filling the block cache and
// recording one pointer trace.
//
//xbc:hot
func (s *session) build(recs []trace.Rec, i int) int {
	f, m := s.f, &s.M
	startIP := recs[i].IP
	ptrs := s.ptrs[:0]
	for len(ptrs) < f.cfg.PtrsPerTrace && i < len(recs) {
		blockStart := recs[i].IP
		fill := s.fill[:0]
		uops := 0
		endsTrace := false
		for i < len(recs) {
			g := s.Path.FetchGroup(recs, i)
			m.BuildCycles += uint64(1 + g.Stall)
			done := false
			for k := 0; k < g.N && !done; k++ {
				r := recs[i+k]
				if uops+int(r.NumUops) > f.cfg.BlockUops {
					done = true
					g.N = k
					break
				}
				m.Insts++
				m.Uops += uint64(r.NumUops)
				m.BuildUops += uint64(r.NumUops)
				uops += int(r.NumUops)
				fill = append(fill, blockInst{ip: r.IP, numUops: r.NumUops, class: r.Class})
				if out := s.Preds.Resolve(r, m); out.Mispredicted {
					m.PenaltyCycles += uint64(f.fecfg.MispredictPenalty)
				}
				if r.Class.IsControlFlow() {
					done = true
					g.N = k + 1
					if r.Class.EndsTrace() {
						endsTrace = true
					}
				}
			}
			i += g.N
			if done || uops >= f.cfg.BlockUops {
				break
			}
			if g.N == 0 {
				break
			}
		}
		s.fill = fill // keep any growth for the next episode
		if len(fill) == 0 {
			i++
			break
		}
		// Inserts reuse the victim's storage, so they stop allocating
		// once every way has been filled at least once.
		b := s.blocks.Insert(uint32(blockStart))
		b.uops = uops
		b.insts = append(b.insts[:0], fill...)
		ptrs = append(ptrs, blockStart)
		if endsTrace {
			break
		}
	}
	if len(ptrs) > 0 {
		t := s.traces.Insert(uint32(startIP))
		*t = append((*t)[:0], ptrs...)
	}
	s.ptrs = ptrs // keep any growth for the next episode
	return i
}

var _ frontend.Frontend = (*Frontend)(nil)
