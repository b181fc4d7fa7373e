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

type block struct {
	valid   bool
	startIP isa.Addr
	uops    int
	insts   []blockInst
	stamp   uint64
}

type ptrTrace struct {
	valid   bool
	startIP isa.Addr
	blocks  []isa.Addr // starting addresses of the member blocks
	stamp   uint64
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

type state struct {
	blocks []block
	traces []ptrTrace
	tick   uint64
	cfg    Config
}

func (st *state) blockSet(ip isa.Addr) int { return int(uint64(ip>>1) & uint64(st.cfg.BlockSets-1)) }
func (st *state) traceSet(ip isa.Addr) int { return int(uint64(ip>>1) & uint64(st.cfg.TraceSets-1)) }

func (st *state) lookupBlock(ip isa.Addr) *block {
	base := st.blockSet(ip) * st.cfg.BlockWays
	for w := 0; w < st.cfg.BlockWays; w++ {
		b := &st.blocks[base+w]
		if b.valid && b.startIP == ip {
			st.tick++
			b.stamp = st.tick
			return b
		}
	}
	return nil
}

func (st *state) insertBlock(ip isa.Addr, insts []blockInst, uops int) {
	base := st.blockSet(ip) * st.cfg.BlockWays
	victim := base
	for w := 0; w < st.cfg.BlockWays; w++ {
		b := &st.blocks[base+w]
		if b.valid && b.startIP == ip {
			victim = base + w
			break
		}
		if !b.valid {
			victim = base + w
			continue
		}
		if st.blocks[victim].valid && b.stamp < st.blocks[victim].stamp {
			victim = base + w
		}
	}
	st.tick++
	// Reuse the victim line's storage; inserts stop allocating once every
	// line has been filled at least once.
	stored := append(st.blocks[victim].insts[:0], insts...)
	st.blocks[victim] = block{valid: true, startIP: ip, uops: uops, insts: stored, stamp: st.tick}
}

func (st *state) lookupTrace(ip isa.Addr) *ptrTrace {
	base := st.traceSet(ip) * st.cfg.TraceWays
	for w := 0; w < st.cfg.TraceWays; w++ {
		t := &st.traces[base+w]
		if t.valid && t.startIP == ip {
			st.tick++
			t.stamp = st.tick
			return t
		}
	}
	return nil
}

func (st *state) insertTrace(ip isa.Addr, blocks []isa.Addr) {
	base := st.traceSet(ip) * st.cfg.TraceWays
	victim := base
	for w := 0; w < st.cfg.TraceWays; w++ {
		t := &st.traces[base+w]
		if t.valid && t.startIP == ip {
			victim = base + w
			break
		}
		if !t.valid {
			victim = base + w
			continue
		}
		if st.traces[victim].valid && t.stamp < st.traces[victim].stamp {
			victim = base + w
		}
	}
	st.tick++
	stored := append(st.traces[victim].blocks[:0], blocks...)
	st.traces[victim] = ptrTrace{valid: true, startIP: ip, blocks: stored, stamp: st.tick}
}

// deliver supplies uops for the pointer trace t, reading member blocks
// from the block cache.
//
//xbc:hot
func (f *Frontend) deliver(st *state, recs []trace.Rec, i int, t *ptrTrace, preds *frontend.PredictorSet, m *frontend.Metrics) int {
	m.DeliveryFetches++
	for _, bip := range t.blocks {
		if i >= len(recs) || recs[i].IP != bip {
			return i // path divergence at block granularity
		}
		b := st.lookupBlock(bip)
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
			out := preds.Resolve(r, m)
			if out.Mispredicted {
				m.PenaltyCycles += uint64(f.fecfg.MispredictPenalty)
				m.DeliveryPenalty += uint64(f.fecfg.MispredictPenalty)
				return i
			}
		}
	}
	return i
}

// buildScratch holds the per-run trace-assembly buffers build reuses
// across episodes.
type buildScratch struct {
	ptrs []isa.Addr
	fill []blockInst
}

// build decodes blocks through the IC path, filling the block cache and
// recording one pointer trace.
//
//xbc:hot
func (f *Frontend) build(st *state, recs []trace.Rec, i int, path *frontend.ICPath, preds *frontend.PredictorSet, sc *buildScratch, m *frontend.Metrics) int {
	startIP := recs[i].IP
	ptrs := sc.ptrs[:0]
	for len(ptrs) < f.cfg.PtrsPerTrace && i < len(recs) {
		blockStart := recs[i].IP
		fill := sc.fill[:0]
		uops := 0
		endsTrace := false
		for i < len(recs) {
			g := path.FetchGroup(recs, i)
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
				if out := preds.Resolve(r, m); out.Mispredicted {
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
		sc.fill = fill // keep any growth for the next episode
		if len(fill) == 0 {
			i++
			break
		}
		st.insertBlock(blockStart, fill, uops)
		ptrs = append(ptrs, blockStart)
		if endsTrace {
			break
		}
	}
	if len(ptrs) > 0 {
		st.insertTrace(startIP, ptrs)
	}
	sc.ptrs = ptrs // keep any growth for the next episode
	return i
}

var _ frontend.Frontend = (*Frontend)(nil)
