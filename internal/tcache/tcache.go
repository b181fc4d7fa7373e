// Package tcache implements the conventional trace cache of section 2.3 —
// the model the paper adopts from [Rote96, Frie97] and compares the XBC
// against: a 4-way set-associative cache whose line holds a single trace
// of up to 16 uops with at most 3 conditional branches, indexed by the
// trace's starting address, with no path associativity.
//
// A trace is single-entry multiple-exit, so the same uop can live in many
// traces; the package tracks that redundancy (the paper's "instruction
// redundancy" metric) as well as line fragmentation.
package tcache

import (
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/trace"
)

// Config describes a trace-cache geometry.
type Config struct {
	Sets        int // power of two
	Ways        int // 4 in the paper
	MaxUops     int // trace quota, 16 in the paper
	MaxBranches int // conditional branch limit, 3 in the paper

	// PathAssoc enables the [Jaco97]-style variation the paper contrasts
	// with: traces are identified by starting address AND an encoding of
	// their internal branch path, so two traces with the same start can
	// coexist; delivery selects the way whose embedded path matches the
	// predicted directions. The variant also fills from the retired
	// stream (as next-trace-prediction designs do), so alternate paths
	// get built without leaving delivery mode. Off in the paper's
	// baseline TC.
	PathAssoc bool
}

// DefaultConfig returns the paper's trace cache sized to the given uop
// budget (lines of MaxUops uops; sets = budget / (ways*16)).
func DefaultConfig(uopBudget int) Config {
	c := Config{Ways: 4, MaxUops: 16, MaxBranches: 3}
	sets := uopBudget / (c.Ways * c.MaxUops)
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	c.Sets = p
	return c
}

// Validate reports the first problem with the geometry.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("tcache: sets %d must be a positive power of two", c.Sets)
	}
	if c.Ways < 1 {
		return fmt.Errorf("tcache: ways %d", c.Ways)
	}
	if c.MaxUops < 1 || c.MaxBranches < 0 {
		return fmt.Errorf("tcache: bad trace limits %d/%d", c.MaxUops, c.MaxBranches)
	}
	return nil
}

// UopCapacity returns the cache's uop budget.
func (c Config) UopCapacity() int { return c.Sets * c.Ways * c.MaxUops }

// traceInst is one instruction embedded in a stored trace, with the path
// information recorded at build time.
type traceInst struct {
	ip      isa.Addr
	numUops uint8
	class   isa.Class
	taken   bool // embedded direction (path the trace was built along)
}

type line struct {
	valid   bool
	startIP isa.Addr
	path    uint32 // encoded internal branch directions (PathAssoc only)
	nbr     uint8  // number of encoded branches
	uops    int
	insts   []traceInst
	stamp   uint64
}

// pathOf encodes the directions of the conditional branches inside a
// trace, oldest in bit 0.
func pathOf(insts []traceInst) (uint32, uint8) {
	var p uint32
	var n uint8
	for _, ti := range insts {
		if ti.class == isa.CondBranch {
			if ti.taken {
				p |= 1 << n
			}
			n++
		}
	}
	return p, n
}

// Cache is the trace cache storage with LRU replacement and redundancy
// accounting.
type Cache struct {
	cfg   Config
	lines []line // sets*ways
	tick  uint64

	storedUops  int              // total uops currently stored
	copies      map[isa.Addr]int // per-instruction stored copy count
	copiedInsts int              // distinct instructions currently stored
	totalCopies int              // sum over copies, maintained incrementally

	Lookups uint64
	Hits    uint64
}

// NewCache builds an empty trace cache.
func NewCache(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		cfg:    cfg,
		lines:  make([]line, cfg.Sets*cfg.Ways),
		copies: make(map[isa.Addr]int),
	}, nil
}

func (c *Cache) setOf(ip isa.Addr) int { return int(uint64(ip>>1) & uint64(c.cfg.Sets-1)) }

// Lookup finds the trace starting at ip, refreshing LRU on a hit. Without
// path associativity at most one trace per starting address exists and
// predDir is ignored (nil is fine); with it, the direction predictor
// selects among same-start traces — a candidate matches when the
// predicted direction of every embedded conditional branch equals the
// direction the trace was built along.
func (c *Cache) Lookup(ip isa.Addr, predDir func(isa.Addr) bool) (*line, bool) {
	c.Lookups++
	base := c.setOf(ip) * c.cfg.Ways
	var best *line
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if !ln.valid || ln.startIP != ip {
			continue
		}
		if !c.cfg.PathAssoc || predDir == nil {
			best = ln
			break
		}
		match := true
		for _, ti := range ln.insts {
			if ti.class == isa.CondBranch && predDir(ti.ip) != ti.taken {
				match = false
				break
			}
		}
		if match {
			best = ln
			break
		}
		if best == nil {
			// No path match (yet): remember a same-start trace as a
			// partial fallback — it supplies uops up to the divergence
			// while the retirement fill builds the alternate path.
			best = ln
		}
	}
	if best == nil {
		return nil, false
	}
	c.tick++
	best.stamp = c.tick
	c.Hits++
	return best, true
}

// Insert stores a freshly built trace. Without path associativity a trace
// with the same starting IP replaces the old one; with it, only a trace
// with the same start AND path is replaced. Otherwise the LRU way of the
// set is evicted.
func (c *Cache) Insert(startIP isa.Addr, insts []traceInst) {
	newPath, newN := pathOf(insts)
	base := c.setOf(startIP) * c.cfg.Ways
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.startIP == startIP &&
			(!c.cfg.PathAssoc || (ln.path == newPath && ln.nbr == newN)) {
			victim = base + w
			break
		}
		if !ln.valid {
			victim = base + w
			continue
		}
		if c.lines[victim].valid && ln.stamp < c.lines[victim].stamp {
			victim = base + w
		}
	}
	c.evict(victim)
	uops := 0
	// The evicted line's instruction storage is reused (evict keeps the
	// backing array), so steady-state inserts do not allocate.
	stored := append(c.lines[victim].insts[:0], insts...)
	for _, ti := range stored {
		uops += int(ti.numUops)
		if c.copies[ti.ip] == 0 {
			c.copiedInsts++
		}
		c.copies[ti.ip]++
		c.totalCopies++
	}
	c.tick++
	c.lines[victim] = line{valid: true, startIP: startIP, path: newPath, nbr: newN, uops: uops, insts: stored, stamp: c.tick}
	c.storedUops += uops
}

func (c *Cache) evict(i int) {
	ln := &c.lines[i]
	if !ln.valid {
		return
	}
	for _, ti := range ln.insts {
		c.copies[ti.ip]--
		c.totalCopies--
		if c.copies[ti.ip] == 0 {
			c.copiedInsts--
			delete(c.copies, ti.ip)
		}
	}
	c.storedUops -= ln.uops
	*ln = line{insts: ln.insts[:0]}
}

// Redundancy returns the average number of stored copies per distinct
// instruction currently resident (1.0 = redundancy-free). The copy total
// is maintained incrementally by Insert/evict, so this is O(1).
func (c *Cache) Redundancy() float64 {
	if c.copiedInsts == 0 {
		return 0
	}
	return float64(c.totalCopies) / float64(c.copiedInsts)
}

// Fragmentation returns the fraction of uop slots left empty by stored
// traces (0 = perfectly packed).
func (c *Cache) Fragmentation() float64 {
	validLines := 0
	for i := range c.lines {
		if c.lines[i].valid {
			validLines++
		}
	}
	if validLines == 0 {
		return 0
	}
	capacity := validLines * c.cfg.MaxUops
	return 1 - float64(c.storedUops)/float64(capacity)
}

// Frontend is the trace-cache instruction-supply model.
type Frontend struct {
	cfg   Config
	fecfg frontend.Config
}

// New returns a TC frontend with the given cache geometry and timing.
func New(cfg Config, fecfg frontend.Config) *Frontend {
	return &Frontend{cfg: cfg, fecfg: fecfg}
}

// Name identifies the model.
func (f *Frontend) Name() string { return "tc" }

// retireFill assembles traces from the retired stream — the fill policy
// of the path-associative variant, which must be able to build alternate
// paths while staying in delivery mode.
type retireFill struct {
	cfg      Config
	buf      []traceInst
	uops     int
	branches int
	startIP  isa.Addr
}

// feed consumes one retired record; completed traces are inserted.
func (rf *retireFill) feed(r trace.Rec, cache *Cache) {
	if len(rf.buf) == 0 {
		rf.startIP = r.IP
	}
	if rf.uops+int(r.NumUops) > rf.cfg.MaxUops {
		rf.flush(cache)
		rf.startIP = r.IP
	}
	rf.buf = append(rf.buf, traceInst{ip: r.IP, numUops: r.NumUops, class: r.Class, taken: r.Taken})
	rf.uops += int(r.NumUops)
	if r.Class == isa.CondBranch {
		rf.branches++
	}
	if r.Class.EndsTrace() || rf.branches >= rf.cfg.MaxBranches || rf.uops >= rf.cfg.MaxUops {
		rf.flush(cache)
	}
}

func (rf *retireFill) flush(cache *Cache) {
	if len(rf.buf) > 0 {
		cache.Insert(rf.startIP, rf.buf)
	}
	rf.buf = rf.buf[:0]
	rf.uops, rf.branches = 0, 0
}

// deliver supplies uops from the stored trace ln while the predicted path
// follows the embedded path and both match the committed stream. Returns
// the new stream index.
//
//xbc:hot
func (f *Frontend) deliver(recs []trace.Rec, i int, ln *line, preds *frontend.PredictorSet, m *frontend.Metrics) int {
	m.DeliveryFetches++
	for _, e := range ln.insts {
		if i >= len(recs) || recs[i].IP != e.ip {
			// Stale trace content relative to the committed path (can
			// happen after a replacement raced with this lookup's path);
			// stop supplying.
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
		if r.Class == isa.CondBranch && r.Taken != e.taken {
			// Correctly predicted off the embedded path: the rest of the
			// line is wrong-path; redirect without penalty. (A prediction
			// that disagreed with the committed path already returned
			// above via the mispredict branch.)
			return i
		}
	}
	return i
}

// build assembles one trace starting at recs[i] while feeding execution
// through the IC path, stores it, and returns the new stream index. The
// caller owns the fill scratch; its contents are dead once build returns
// (Insert copies them into line storage).
//
//xbc:hot
func (f *Frontend) build(recs []trace.Rec, i int, cache *Cache, path *frontend.ICPath, preds *frontend.PredictorSet, fillScratch *[]traceInst, m *frontend.Metrics) int {
	startIP := recs[i].IP
	fill := (*fillScratch)[:0]
	uops, branches := 0, 0

	// Decode groups supply the build-mode uops; the fill unit watches the
	// same records.
	j := i
	for j < len(recs) {
		g := path.FetchGroup(recs, j)
		m.BuildCycles += uint64(1 + g.Stall)
		done := false
		for k := 0; k < g.N && !done; k++ {
			r := recs[j+k]
			if uops+int(r.NumUops) > f.cfg.MaxUops {
				done = true
				// The overflowing instruction is NOT consumed by the fill
				// buffer; adjust the group consumption so the next trace
				// starts with it.
				g.N = k
				break
			}
			m.Insts++
			m.Uops += uint64(r.NumUops)
			m.BuildUops += uint64(r.NumUops)
			uops += int(r.NumUops)
			fill = append(fill, traceInst{ip: r.IP, numUops: r.NumUops, class: r.Class, taken: r.Taken})
			if out := preds.Resolve(r, m); out.Mispredicted {
				m.PenaltyCycles += uint64(f.fecfg.MispredictPenalty)
			}
			if r.Class == isa.CondBranch {
				branches++
				if branches >= f.cfg.MaxBranches {
					done = true
					g.N = k + 1
				}
			}
			if r.Class.EndsTrace() {
				done = true
				g.N = k + 1
			}
		}
		j += g.N
		if done || uops >= f.cfg.MaxUops {
			break
		}
		if g.N == 0 {
			// Quota hit exactly at a group boundary.
			break
		}
	}
	if len(fill) > 0 {
		cache.Insert(startIP, fill)
	} else if j == i {
		// Defensive: always make progress.
		j++
	}
	*fillScratch = fill // keep any growth for the next episode
	return j
}

var _ frontend.Frontend = (*Frontend)(nil)
