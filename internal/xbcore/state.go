package xbcore

import (
	"fmt"

	"xbc/internal/isa"
	"xbc/internal/snapshot"
)

// This file serializes the XBC storage and XBTB complex for warm-state
// snapshots. Geometry-fixed structures (the data array, the XBTB entry
// table, the XiBTB levels, the XRSB) encode in place; the append-only
// logical pools (entries, variants, arenas) encode with their lengths and
// are revalidated on load, since pool indices cross-reference each other
// and a corrupt blob must fail cleanly instead of panicking later. The
// open-addressed index is NOT stored: it is derived state, rebuilt from
// the entry pool at load time (only its size is recorded, so the growth
// schedule — and with it every future allocation — matches the
// uninterrupted run exactly).

// savePtr appends an XBTB pointer. The direct variant reference (vref) is
// included: variant pool indices survive serialization unchanged, and a
// stale or hostile value is safe by construction (resolveRef validates it
// against the pool before use).
func savePtr(w *snapshot.Writer, p Ptr) {
	w.U64(uint64(p.EndIP))
	w.U32(p.Variant)
	w.U32(uint32(p.vref))
	w.U32(uint32(p.Offset))
	w.Bool(p.Valid)
}

// loadPtr reads a pointer written by savePtr.
func loadPtr(r *snapshot.Reader) Ptr {
	return Ptr{
		EndIP:   r.Addr(),
		Variant: r.U32(),
		vref:    int32(r.U32()),
		Offset:  int32(r.U32()),
		Valid:   r.Bool(),
	}
}

// SaveState appends the cache's dynamic state: data array, logical pools,
// occupancy, and statistics.
func (c *Cache) SaveState(w *snapshot.Writer) {
	w.U64(c.tick)
	w.Len(len(c.lineHdrs))
	for i := range c.lineHdrs {
		h := &c.lineHdrs[i]
		w.U64(uint64(h.tag))
		w.U64(h.stamp)
		w.U32(h.meta)
	}
	for _, u := range c.lineUops {
		w.U64(uint64(u))
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
	// Arenas: lengths are derived (variants x quota / maxOrders slabs).
	for _, u := range c.rseqArena {
		w.U64(uint64(u))
	}
	for _, ref := range c.refsArena {
		w.U8(uint8(ref.bank))
		w.U8(uint8(ref.way))
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
	r.LenExact(len(c.lineHdrs))
	for i := range c.lineHdrs {
		h := &c.lineHdrs[i]
		h.tag = r.Addr()
		h.stamp = r.U64()
		h.meta = r.U32()
	}
	for i := range c.lineUops {
		c.lineUops[i] = isa.UopID(r.U64())
	}
	ne := r.Len(20)
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
	nv := r.Len(24)
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
	c.rseqArena = c.rseqArena[:0]
	c.rseqArena = grown(c.rseqArena, nv*c.quota)
	for i := range c.rseqArena {
		c.rseqArena[i] = isa.UopID(r.U64())
	}
	c.refsArena = c.refsArena[:0]
	c.refsArena = grown(c.refsArena, nv*c.maxOrders)
	for i := range c.refsArena {
		c.refsArena[i] = lineRef{bank: int8(r.U8()), way: int8(r.U8())}
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

// SaveState appends the XBTB's dynamic state.
func (t *XBTB) SaveState(w *snapshot.Writer) {
	w.U64(t.tick)
	w.U64(t.Lookups)
	w.U64(t.Hits)
	w.U64(t.Promotions)
	w.U64(t.Depromotions)
	w.Len(len(t.entries))
	for i := range t.entries {
		e := &t.entries[i]
		w.Bool(e.valid)
		w.U64(uint64(e.xbIP))
		w.U64(e.stamp)
		w.U8(uint8(e.Class))
		savePtr(w, e.Taken)
		savePtr(w, e.Fall)
		w.U8(e.Counter)
		w.Bool(e.Promoted)
		w.Bool(e.PromotedTaken)
		w.U8(e.VioBudget)
		w.U8(e.Conform)
		w.Bool(e.LastTaken)
		savePtr(w, e.PromotedTo)
	}
}

// LoadState restores state saved by SaveState into a same-geometry XBTB.
func (t *XBTB) LoadState(r *snapshot.Reader) error {
	t.tick = r.U64()
	t.Lookups = r.U64()
	t.Hits = r.U64()
	t.Promotions = r.U64()
	t.Depromotions = r.U64()
	r.LenExact(len(t.entries))
	for i := range t.entries {
		e := &t.entries[i]
		e.valid = r.Bool()
		e.xbIP = r.Addr()
		e.stamp = r.U64()
		e.Class = isa.Class(r.U8())
		e.Taken = loadPtr(r)
		e.Fall = loadPtr(r)
		e.Counter = r.U8()
		e.Promoted = r.Bool()
		e.PromotedTaken = r.Bool()
		e.VioBudget = r.U8()
		e.Conform = r.U8()
		e.LastTaken = r.Bool()
		e.PromotedTo = loadPtr(r)
	}
	return r.Err()
}

// SaveState appends the XiBTB's dynamic state (both cascade levels).
func (x *XiBTB) SaveState(w *snapshot.Writer) {
	w.U64(x.hist)
	w.Len(len(x.histTags))
	for i := range x.histTags {
		w.U64(uint64(x.histTags[i]))
		savePtr(w, x.histPtrs[i])
	}
	for i := range x.baseTags {
		w.U64(uint64(x.baseTags[i]))
		savePtr(w, x.basePtrs[i])
	}
}

// LoadState restores state saved by SaveState into a same-geometry XiBTB.
func (x *XiBTB) LoadState(r *snapshot.Reader) error {
	x.hist = r.U64()
	r.LenExact(len(x.histTags))
	for i := range x.histTags {
		x.histTags[i] = r.Addr()
		x.histPtrs[i] = loadPtr(r)
	}
	for i := range x.baseTags {
		x.baseTags[i] = r.Addr()
		x.basePtrs[i] = loadPtr(r)
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
