package bpred

import "xbc/internal/isa"

// BTBEntry is one branch-target-buffer record.
type BTBEntry struct {
	Tag    isa.Addr
	Target isa.Addr
	Class  isa.Class
	Valid  bool
}

// BTB is a set-associative branch target buffer keyed by branch address.
// The instruction-cache frontend uses it to locate the next control-flow
// instruction and its likely target.
type BTB struct {
	sets  int
	ways  int
	data  []BTBEntry // sets*ways, way-major within a set
	clock []uint64   // LRU stamps
	tick  uint64
}

// NewBTB returns a BTB with the given geometry; sets must be a power of
// two.
func NewBTB(sets, ways int) *BTB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("bpred: BTB sets must be a positive power of two")
	}
	if ways <= 0 {
		panic("bpred: BTB needs at least one way")
	}
	return &BTB{
		sets:  sets,
		ways:  ways,
		data:  make([]BTBEntry, sets*ways),
		clock: make([]uint64, sets*ways),
	}
}

func (b *BTB) setOf(pc isa.Addr) int { return int(uint64(pc>>1) & uint64(b.sets-1)) }

// Lookup returns the entry for the branch at pc, if present.
func (b *BTB) Lookup(pc isa.Addr) (BTBEntry, bool) {
	base := b.setOf(pc) * b.ways
	for w := 0; w < b.ways; w++ {
		e := b.data[base+w]
		if e.Valid && e.Tag == pc {
			b.tick++
			b.clock[base+w] = b.tick
			return e, true
		}
	}
	return BTBEntry{}, false
}

// Insert records (or refreshes) the branch at pc with the given target and
// class, evicting the LRU way on conflict.
func (b *BTB) Insert(pc, target isa.Addr, class isa.Class) {
	base := b.setOf(pc) * b.ways
	victim := base
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.data[i].Valid && b.data[i].Tag == pc {
			victim = i
			break
		}
		if !b.data[i].Valid {
			victim = i
			break
		}
		if b.clock[i] < b.clock[victim] {
			victim = i
		}
	}
	b.tick++
	b.data[victim] = BTBEntry{Tag: pc, Target: target, Class: class, Valid: true}
	b.clock[victim] = b.tick
}

// Reset invalidates all entries.
func (b *BTB) Reset() {
	for i := range b.data {
		b.data[i] = BTBEntry{}
		b.clock[i] = 0
	}
	b.tick = 0
}

// RAS is a fixed-depth return address stack with wrap-around overflow, the
// standard hardware discipline (an overflowing push silently reuses the
// oldest slot; underflow returns no prediction).
type RAS struct {
	slots []isa.Addr
	top   int // index of next push
	depth int // live entries, <= len(slots)
}

// NewRAS returns a return stack holding up to n addresses.
func NewRAS(n int) *RAS {
	if n <= 0 {
		panic("bpred: RAS needs at least one slot")
	}
	return &RAS{slots: make([]isa.Addr, n)}
}

// Push records a return address.
func (r *RAS) Push(a isa.Addr) {
	r.slots[r.top] = a
	r.top = (r.top + 1) % len(r.slots)
	if r.depth < len(r.slots) {
		r.depth++
	}
}

// Pop predicts the next return target; ok is false on underflow.
func (r *RAS) Pop() (a isa.Addr, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.slots)) % len(r.slots)
	r.depth--
	return r.slots[r.top], true
}

// Peek returns the would-be Pop result without removing it.
func (r *RAS) Peek() (a isa.Addr, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	i := (r.top - 1 + len(r.slots)) % len(r.slots)
	return r.slots[i], true
}

// Depth reports the number of live entries.
func (r *RAS) Depth() int { return r.depth }

// Reset empties the stack.
func (r *RAS) Reset() { r.top, r.depth = 0, 0 }

// IndirectPredictor predicts indirect branch targets. The simplest useful
// organisation — and the one the XiBTB needs — is a tagged table keyed by
// branch address hashed with a short path history, storing the last target
// seen for that (branch, history) pair.
type IndirectPredictor struct {
	histBits uint
	hist     uint64
	mask     uint64
	entries  []indirectEntry
}

// indirectEntry is one table slot: the tag and target a lookup reads
// together sit together.
type indirectEntry struct {
	tag, target isa.Addr
	valid       bool
}

// NewIndirectPredictor returns a predictor with 2^indexBits entries using
// histBits of target history in the index hash. histBits=0 degenerates to
// a per-branch last-target table.
func NewIndirectPredictor(indexBits, histBits uint) *IndirectPredictor {
	if indexBits == 0 || indexBits > 28 {
		panic("bpred: indirect predictor index bits out of range")
	}
	n := 1 << indexBits
	return &IndirectPredictor{
		histBits: histBits,
		mask:     uint64(n - 1),
		entries:  make([]indirectEntry, n),
	}
}

func (p *IndirectPredictor) index(pc isa.Addr) uint64 {
	h := p.hist & (1<<p.histBits - 1)
	return (uint64(pc>>1) ^ h*0x9e3779b1) & p.mask
}

// Predict returns the predicted target of the indirect branch at pc.
func (p *IndirectPredictor) Predict(pc isa.Addr) (isa.Addr, bool) {
	e := &p.entries[p.index(pc)]
	if e.valid && e.tag == pc {
		return e.target, true
	}
	return 0, false
}

// Update records the resolved target and folds it into the path history.
func (p *IndirectPredictor) Update(pc, target isa.Addr) {
	p.entries[p.index(pc)] = indirectEntry{tag: pc, target: target, valid: true}
	if p.histBits > 0 {
		p.hist = p.hist<<2 ^ uint64(target>>1)
	}
}

// Reset clears table and history.
func (p *IndirectPredictor) Reset() {
	p.hist = 0
	clear(p.entries)
}
