package xbcore

import (
	"fmt"

	"xbc/internal/isa"
	"xbc/internal/snapshot"
)

// This file serializes the XBC storage and XBTB complex for warm-state
// snapshots. Geometry-fixed structures (the data array, the XBTB entry
// table, the XiBTB levels, the XRSB) encode in place, the tables sparsely:
// the bitmap of valid entries, then the valid entries only. The
// append-only logical pools (entries, variants, arenas) encode with their
// lengths and are revalidated on load, since pool indices cross-reference
// each other and a corrupt blob must fail cleanly instead of panicking
// later. Only the used part of a line or arena slab is stored: no reader
// looks past a line's count, a variant's rlen or its nrefs, and the rest
// restores as zero. The open-addressed index is NOT stored: it is derived
// state, rebuilt from the entry pool at load time (only its size is
// recorded, so the growth schedule — and with it every future allocation
// — matches the uninterrupted run exactly).

// savePtrBody appends the fields of a valid XBTB pointer, its ending
// address as a delta from base (the address of the block it leads from);
// its validity is stored by the caller. The direct variant reference
// (vref) is included: variant pool indices survive serialization
// unchanged, and a stale or hostile value is safe by construction
// (resolveRef validates it against the pool before use).
func savePtrBody(w *snapshot.Writer, base isa.Addr, p Ptr) {
	w.AddrFrom(base, p.EndIP)
	w.U32(p.Variant)
	w.U32(uint32(p.vref))
	w.U32(uint32(p.Offset))
}

// loadPtrBody reads a valid pointer written by savePtrBody from the same
// base.
func loadPtrBody(r *snapshot.Reader, base isa.Addr) Ptr {
	return Ptr{
		EndIP:   r.AddrFrom(base),
		Variant: r.U32(),
		vref:    int32(r.U32()),
		Offset:  int32(r.U32()),
		Valid:   true,
	}
}

// savePtr appends a pointer: its validity, then its fields only when it
// is valid. An invalid pointer is never followed (every reader checks
// Valid first), so it restores as the zero Ptr.
func savePtr(w *snapshot.Writer, p Ptr) {
	w.Bool(p.Valid)
	if p.Valid {
		savePtrBody(w, 0, p)
	}
}

// loadPtr reads a pointer written by savePtr.
func loadPtr(r *snapshot.Reader) Ptr {
	if !r.Bool() {
		return Ptr{}
	}
	return loadPtrBody(r, 0)
}

// saveUops appends a uop sequence whose length the reader knows, as
// zigzag deltas from the first uop of endIP, the address the sequence's
// block ends at, and then from each uop to the next: a block's uops lie
// close together, so most deltas take a byte.
func saveUops(w *snapshot.Writer, endIP isa.Addr, s []isa.UopID) {
	prev := isa.Uop(endIP, 0)
	for _, u := range s {
		w.I64(int64(u - prev))
		prev = u
	}
}

// loadUops fills dst with a sequence written by saveUops for the same
// endIP.
func loadUops(r *snapshot.Reader, endIP isa.Addr, dst []isa.UopID) {
	prev := isa.Uop(endIP, 0)
	for i := range dst {
		prev += isa.UopID(r.I64())
		dst[i] = prev
	}
}

// SaveState appends the cache's dynamic state: data array, logical pools,
// occupancy, and statistics.
func (c *Cache) SaveState(w *snapshot.Writer) {
	w.U64(c.tick)
	bu := c.cfg.BankUops
	w.Sparse(len(c.lineHdrs), func(i int) bool { return c.lineHdrs[i].meta&lineValid != 0 })
	for i := range c.lineHdrs {
		h := &c.lineHdrs[i]
		if h.meta&lineValid == 0 {
			continue
		}
		count := int(h.meta & lineCountMask)
		w.U64(uint64(h.tag))
		w.U64(c.tick<<3 + 7 - h.stamp)
		w.Int(int(h.meta&^lineValid) >> lineOrderShift)
		w.Int(count)
		saveUops(w, h.tag, c.lineUops[i*bu:i*bu+count])
	}
	w.Len(len(c.entries))
	for i := range c.entries {
		e := &c.entries[i]
		w.U64(uint64(e.endIP))
		w.Int(int(e.head))
		w.Int(int(e.tail))
		w.U32(e.nextID)
	}
	w.Len(len(c.variants))
	for i := range c.variants {
		v := &c.variants[i]
		w.Int(int(v.next))
		w.Int(int(v.entry))
		w.U32(v.id)
		w.U32(uint32(v.rlen))
		w.U32(uint32(v.nrefs))
		w.U32(uint32(v.conflicts))
	}
	// Arena slabs: each variant's rlen uops and nrefs line references.
	for i := range c.variants {
		saveUops(w, c.entries[c.variants[i].entry].endIP, c.vrseq(int32(i)))
		for _, ref := range c.vrefs(int32(i)) {
			w.U8(uint8(ref.bank))
			w.U8(uint8(ref.way))
		}
	}
	w.Int(len(c.idxVals))
	w.Int(c.validLines)
	w.Int(c.usedSlots)
	w.U64(c.Allocs)
	w.U64(c.Evictions)
	w.U64(c.Shares)
	w.U64(c.SetSearches)
	w.U64(c.ComplexXBs)
	w.U64(c.Extensions)
	w.U64(c.Containments)
	w.U64(c.Replacements)
}

// LoadState restores state saved by SaveState into a same-geometry cache,
// rebuilding the address index and validating every pool cross-reference.
func (c *Cache) LoadState(r *snapshot.Reader) error {
	c.tick = r.U64()
	bu := c.cfg.BankUops
	// A valid line takes a one-byte tag, age, order and count at the least.
	valid := r.Sparse(len(c.lineHdrs), 4)
	clear(c.lineUops)
	for i := range c.lineHdrs {
		h := &c.lineHdrs[i]
		if !valid.Has(i) {
			*h = lineHdr{}
			continue
		}
		h.tag = r.Addr()
		age := r.U64()
		order, count := r.Int(), r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if age > c.tick<<3+7 {
			return fmt.Errorf("xbcore: line %d is %d stamps old, clock %d", i, age, c.tick)
		}
		if order < 0 || order >= c.maxOrders || count < 0 || count > bu {
			return fmt.Errorf("xbcore: line %d holds %d uops of order %d (bank %d uops, %d orders)", i, count, order, bu, c.maxOrders)
		}
		h.stamp = c.tick<<3 + 7 - age
		h.meta = metaFor(order, count)
		loadUops(r, h.tag, c.lineUops[i*bu:i*bu+count])
	}
	ne := r.Len(4) // one-byte endIP, head, tail and nextID
	if err := r.Err(); err != nil {
		return err
	}
	c.entries = c.entries[:0]
	for i := 0; i < ne; i++ {
		c.entries = append(c.entries, entryRec{
			endIP:  r.Addr(),
			head:   int32(r.Int()),
			tail:   int32(r.Int()),
			nextID: r.U32(),
		})
	}
	nv := r.Len(6) // six one-byte varints
	if err := r.Err(); err != nil {
		return err
	}
	c.variants = c.variants[:0]
	for i := 0; i < nv; i++ {
		c.variants = append(c.variants, variantRec{
			next:      int32(r.Int()),
			entry:     int32(r.Int()),
			id:        r.U32(),
			rlen:      int32(r.U32()),
			nrefs:     int32(r.U32()),
			conflicts: int32(r.U32()),
		})
	}
	// Cross-reference validation before any arena slicing: a bad rlen or
	// pool index would otherwise panic downstream, not error.
	for i := range c.entries {
		e := &c.entries[i]
		if int(e.head) >= nv || e.head < -1 || int(e.tail) >= nv || e.tail < -1 {
			return fmt.Errorf("xbcore: entry %d links variants %d..%d of %d", i, e.head, e.tail, nv)
		}
	}
	for i := range c.variants {
		v := &c.variants[i]
		if int(v.next) >= nv || v.next < -1 {
			return fmt.Errorf("xbcore: variant %d links to %d of %d", i, v.next, nv)
		}
		if int(v.entry) >= ne || v.entry < 0 {
			return fmt.Errorf("xbcore: variant %d owned by entry %d of %d", i, v.entry, ne)
		}
		if v.rlen < 0 || int(v.rlen) > c.quota {
			return fmt.Errorf("xbcore: variant %d stores %d uops, quota %d", i, v.rlen, c.quota)
		}
		if v.nrefs < 0 || int(v.nrefs) > c.maxOrders {
			return fmt.Errorf("xbcore: variant %d has %d refs, max %d", i, v.nrefs, c.maxOrders)
		}
	}
	c.rseqArena = grown(c.rseqArena[:0], nv*c.quota)
	clear(c.rseqArena)
	c.refsArena = grown(c.refsArena[:0], nv*c.maxOrders)
	clear(c.refsArena)
	for i := range c.variants {
		loadUops(r, c.entries[c.variants[i].entry].endIP, c.vrseq(int32(i)))
		refs := c.vrefs(int32(i))
		for j := range refs {
			refs[j] = lineRef{bank: int8(r.U8()), way: int8(r.U8())}
		}
	}
	idxSize := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if idxSize <= 0 || idxSize&(idxSize-1) != 0 || 4*ne > 3*idxSize {
		return fmt.Errorf("xbcore: index size %d cannot hold %d entries", idxSize, ne)
	}
	c.idxKeys = make([]isa.Addr, idxSize)
	c.idxVals = make([]int32, idxSize)
	for i := range c.idxVals {
		c.idxVals[i] = -1
	}
	for i := range c.entries {
		c.idxInsert(c.entries[i].endIP, int32(i))
	}
	c.validLines = r.Int()
	c.usedSlots = r.Int()
	c.Allocs = r.U64()
	c.Evictions = r.U64()
	c.Shares = r.U64()
	c.SetSearches = r.U64()
	c.ComplexXBs = r.U64()
	c.Extensions = r.U64()
	c.Containments = r.U64()
	c.Replacements = r.U64()
	return r.Err()
}

// entryIndex returns e's index into the fixed entry table, -1 for nil —
// the serializable form of the runState's prevEntry pointer.
func (t *XBTB) entryIndex(e *Entry) int {
	if e == nil {
		return -1
	}
	for i := range t.entries {
		if &t.entries[i] == e {
			return i
		}
	}
	return -1
}

// entryAt is the inverse of entryIndex, bounds-checked for corrupt blobs.
func (t *XBTB) entryAt(i int) (*Entry, error) {
	if i == -1 {
		return nil, nil
	}
	if i < 0 || i >= len(t.entries) {
		return nil, fmt.Errorf("xbcore: XBTB entry index %d of %d", i, len(t.entries))
	}
	return &t.entries[i], nil
}

// Flag bits of a valid XBTB entry: its bools and the validity of its
// three pointers, one byte per entry.
const (
	flagPromoted = 1 << iota
	flagPromotedTaken
	flagLastTaken
	flagTaken
	flagFall
	flagPromotedTo
	flagsAll = 1<<iota - 1
)

// SaveState appends the XBTB's dynamic state: its clock and statistics,
// the bitmap of valid entries, and each valid entry's fields, its
// pointers' fields only where they are valid.
func (t *XBTB) SaveState(w *snapshot.Writer) {
	w.U64(t.tick)
	w.U64(t.Lookups)
	w.U64(t.Hits)
	w.U64(t.Promotions)
	w.U64(t.Depromotions)
	w.Sparse(len(t.entries), func(i int) bool { return t.entries[i].valid })
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		var flags uint8
		for bit, on := range [...]bool{e.Promoted, e.PromotedTaken, e.LastTaken, e.Taken.Valid, e.Fall.Valid, e.PromotedTo.Valid} {
			if on {
				flags |= 1 << bit
			}
		}
		w.U64(uint64(e.xbIP))
		w.U64(t.tick - e.stamp)
		w.U8(uint8(e.Class))
		w.U8(flags)
		w.U8(e.Counter)
		w.U8(e.VioBudget)
		w.U8(e.Conform)
		for _, p := range [...]*Ptr{&e.Taken, &e.Fall, &e.PromotedTo} {
			if p.Valid {
				savePtrBody(w, e.xbIP, *p)
			}
		}
	}
}

// LoadState restores state saved by SaveState into a same-geometry XBTB,
// leaving every invalid entry (and invalid pointer) as a fresh XBTB has
// it.
func (t *XBTB) LoadState(r *snapshot.Reader) error {
	t.tick = r.U64()
	t.Lookups = r.U64()
	t.Hits = r.U64()
	t.Promotions = r.U64()
	t.Depromotions = r.U64()
	valid := r.Sparse(len(t.entries), 7) // one-byte address, age and five byte fields
	for i := range t.entries {
		e := &t.entries[i]
		*e = Entry{}
		if !valid.Has(i) {
			continue
		}
		e.valid = true
		e.xbIP = r.Addr()
		age := r.U64()
		e.Class = isa.Class(r.U8())
		flags := r.U8()
		e.Counter = r.U8()
		e.VioBudget = r.U8()
		e.Conform = r.U8()
		if err := r.Err(); err != nil {
			return err
		}
		if age > t.tick {
			return fmt.Errorf("xbcore: XBTB entry %d is %d accesses old, clock %d", i, age, t.tick)
		}
		if flags&^flagsAll != 0 {
			return fmt.Errorf("xbcore: XBTB entry %d has flags %#x", i, flags)
		}
		e.stamp = t.tick - age
		e.Promoted = flags&flagPromoted != 0
		e.PromotedTaken = flags&flagPromotedTaken != 0
		e.LastTaken = flags&flagLastTaken != 0
		for bit, p := range [...]*Ptr{&e.Taken, &e.Fall, &e.PromotedTo} {
			if flags&(flagTaken<<bit) != 0 {
				*p = loadPtrBody(r, e.xbIP)
			}
		}
	}
	return r.Err()
}

// xiLevel is one cascade level of the XiBTB: parallel tag and pointer
// slots.
type xiLevel struct {
	tags []isa.Addr
	ptrs []Ptr
}

// levels returns the history level, then the base level.
func (x *XiBTB) levels() [2]xiLevel {
	return [2]xiLevel{{x.histTags, x.histPtrs}, {x.baseTags, x.basePtrs}}
}

// SaveState appends the XiBTB's dynamic state: its history, then each
// cascade level as a sparse table of the slots holding a valid pointer.
// A slot's tag is only ever compared under a valid pointer, so an
// invalid slot restores as a fresh one.
func (x *XiBTB) SaveState(w *snapshot.Writer) {
	w.U64(x.hist)
	for _, lvl := range x.levels() {
		w.Sparse(len(lvl.ptrs), func(i int) bool { return lvl.ptrs[i].Valid })
		for i, p := range lvl.ptrs {
			if p.Valid {
				w.U64(uint64(lvl.tags[i]))
				savePtrBody(w, lvl.tags[i], p)
			}
		}
	}
}

// LoadState restores state saved by SaveState into a same-geometry XiBTB.
func (x *XiBTB) LoadState(r *snapshot.Reader) error {
	x.hist = r.U64()
	for _, lvl := range x.levels() {
		valid := r.Sparse(len(lvl.ptrs), 5) // one-byte tag and four pointer fields
		for i := range lvl.ptrs {
			if !valid.Has(i) {
				lvl.tags[i], lvl.ptrs[i] = 0, Ptr{}
				continue
			}
			lvl.tags[i] = r.Addr()
			lvl.ptrs[i] = loadPtrBody(r, lvl.tags[i])
		}
	}
	return r.Err()
}

// SaveState appends the XRSB's dynamic state.
func (x *XRSB) SaveState(w *snapshot.Writer) {
	w.Len(len(x.slots))
	for _, a := range x.slots {
		w.U64(uint64(a))
	}
	w.Bools(x.live)
	w.Int(x.top)
	w.Int(x.depth)
}

// LoadState restores state saved by SaveState into a same-depth XRSB.
func (x *XRSB) LoadState(r *snapshot.Reader) error {
	r.LenExact(len(x.slots))
	for i := range x.slots {
		x.slots[i] = r.Addr()
	}
	r.BoolsInto(x.live)
	x.top = r.Int()
	x.depth = r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if x.top < 0 || x.top >= len(x.slots) {
		return fmt.Errorf("xbcore: XRSB top %d of %d", x.top, len(x.slots))
	}
	if x.depth < 0 || x.depth > len(x.slots) {
		return fmt.Errorf("xbcore: XRSB depth %d of %d", x.depth, len(x.slots))
	}
	return nil
}
