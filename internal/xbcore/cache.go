package xbcore

import (
	"fmt"

	"xbc/internal/isa"
)

// This file implements the XBC storage: the physical banked data array
// (sections 3.2 and 3.10) and the logical extended-block layer on top of
// it (variants, chunk sharing, the XFU insert cases of section 3.3).
//
// Physical model: each set has Banks x Ways lines of BankUops uop slots.
// A stored XB occupies one line per "order": order 0 (the primary line)
// holds the last BankUops uops, order 1 the preceding ones, and so on —
// the reverse-order storage of section 3.4, which lets a block grow at its
// head without moving anything or changing its identity.
//
// Logical model: an entry (keyed by the XB's ending address) owns one or
// more variants — distinct uop sequences sharing that ending address (the
// paper's complex XBs). A variant records its uop sequence from the end
// (rseq) and, per order, which line it believes holds that chunk. Lines
// are shared between variants whenever the chunk content is identical,
// which is what makes the XBC (nearly) redundancy-free. Eviction never
// chases pointers: a variant discovers damage lazily when a fetch finds a
// line no longer matching, and set search (section 3.9) repairs the
// reference if the chunk was merely re-placed.
//
// Data layout: the simulated geometry IS the data layout. The physical
// array is four parallel flat slices — tag, packed valid/order/count
// metadata, LRU stamp, and one uop arena — indexed by
// (set*Banks+bank)*Ways+way, with line i's uop slots at [i*BankUops,
// (i+1)*BankUops) in the arena; a line identity check is two word loads
// plus the chunk compare. The logical layer is three append-only pools
// (entry records, variant records, and per-variant rseq/ref slabs carved
// out of two arenas) reached through an open-addressed hash index, so the
// steady state allocates nothing: entries and variants are never freed,
// pool indices stay valid for the lifetime of the cache, and the XBTB
// stores them inside its pointers (Ptr.vref) so delivery-mode fetches walk
// straight into the arena instead of re-deriving the location per fetch.

// lineRef locates a line within a known set.
type lineRef struct {
	bank int8
	way  int8
}

// Line metadata packs valid, order and count into one word so a line
// identity compare is a tag load plus one meta load. An invalid line has
// meta 0, which no metaFor value can equal.
const (
	lineValid      = uint32(1) << 31
	lineOrderShift = 16
	lineCountMask  = uint32(1)<<lineOrderShift - 1
)

// metaFor encodes the identity word of a valid line holding count uops of
// the given order.
func metaFor(order, count int) uint32 {
	return lineValid | uint32(order)<<lineOrderShift | uint32(count)
}

// lineHdr is the identity and recency header of one physical line.
type lineHdr struct {
	tag   isa.Addr
	stamp uint64
	meta  uint32
}

// entryRec groups the variants sharing one ending address. Variants hang
// off a head/tail-linked list in insertion order (the order the old
// variant slice preserved, which the insert-case selection depends on).
type entryRec struct {
	endIP  isa.Addr
	head   int32 // first variant index, -1 when none
	tail   int32 // last variant index, for O(1) append
	nextID uint32
}

// variantRec is one logical XB: a uop sequence ending at the owning
// entry's address. Its storage lives in the cache arenas: the reverse
// -order uop sequence occupies the fixed Quota-sized slab
// rseqArena[vi*Quota:] (rlen uops used), and the per-order line references
// occupy refsArena[vi*MaxOrders:] (nrefs used).
type variantRec struct {
	next      int32 // next variant of the same entry, -1 at the tail
	entry     int32 // owning entry index
	id        uint32
	rlen      int32 // stored uop count
	nrefs     int32 // initialized line references
	conflicts int32 // dynamic-placement pressure counter
}

// Cache is the XBC data array plus the logical XB layer.
type Cache struct {
	cfg       Config
	quota     int // == cfg.Quota, hoisted off the hot paths
	maxOrders int // == cfg.MaxOrders()

	// Physical data array: flat slices, one element per line. Headers
	// (tag, packed meta, LRU stamp) are interleaved per line so an
	// identity check touches one cache line instead of three parallel
	// arrays; uop slots live in their own arena.
	lineHdrs []lineHdr
	lineUops []isa.UopID // line i's slots at [i*BankUops, (i+1)*BankUops)
	tick     uint64

	// Logical layer: append-only pools plus the open-addressed index.
	entries   []entryRec
	variants  []variantRec
	rseqArena []isa.UopID // Quota uops per variant
	refsArena []lineRef   // MaxOrders refs per variant

	// Open-addressed endIP -> entry-index map (linear probing, no
	// deletion). idxVals[i] < 0 marks an empty slot.
	idxKeys []isa.Addr
	idxVals []int32

	// Incrementally maintained occupancy (kept current by ensureChunk,
	// the only place line content changes) so Fragmentation and
	// Utilization are O(1) instead of sweeping the data array.
	validLines int
	usedSlots  int

	// Reusable scratch, sized once, so the insert and metrics paths never
	// allocate per call: materialize's per-order residency flags,
	// Redundancy's copy-counting buffer (lazily sized to the data array),
	// and CheckInvariants' sorted-address walk.
	residentScratch []bool
	redScratch      []isa.UopID
	ipsScratch      []isa.Addr

	// checkErr is the first violation recorded by the insert-time checks
	// (Config.Check only); the run's invariant checker surfaces it.
	checkErr error

	// Statistics.
	Allocs       uint64
	Evictions    uint64
	Shares       uint64 // chunk allocations satisfied by an existing line
	SetSearches  uint64 // successful set-search repairs
	ComplexXBs   uint64 // case-3 inserts
	Extensions   uint64 // case-2 inserts
	Containments uint64 // case-1 inserts
	Replacements uint64 // dynamic-placement line moves
}

// seedEntries is the initial pool capacity: small enough that short-lived
// caches stay cheap, large enough that a full run reaches steady state
// after a handful of amortized doublings.
const seedEntries = 256

// NewCache builds an empty XBC.
func NewCache(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets * cfg.Banks * cfg.Ways
	c := &Cache{
		cfg:             cfg,
		quota:           cfg.Quota,
		maxOrders:       cfg.MaxOrders(),
		lineHdrs:        make([]lineHdr, n),
		lineUops:        make([]isa.UopID, n*cfg.BankUops),
		entries:         make([]entryRec, 0, seedEntries),
		variants:        make([]variantRec, 0, seedEntries),
		rseqArena:       make([]isa.UopID, 0, seedEntries*cfg.Quota),
		refsArena:       make([]lineRef, 0, seedEntries*cfg.MaxOrders()),
		idxKeys:         make([]isa.Addr, 2*seedEntries),
		idxVals:         make([]int32, 2*seedEntries),
		residentScratch: make([]bool, cfg.MaxOrders()),
	}
	for i := range c.idxVals {
		c.idxVals[i] = -1
	}
	return c, nil
}

// hashAddr mixes an ending address for the open-addressed index. The
// multiplier is the 64-bit golden ratio; the xor-fold spreads its high
// bits into the masked low ones.
func hashAddr(a isa.Addr) uint64 {
	h := uint64(a) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// entryOf returns the entry index for endIP, or -1.
func (c *Cache) entryOf(endIP isa.Addr) int32 {
	mask := uint64(len(c.idxVals) - 1)
	for i := hashAddr(endIP) & mask; ; i = (i + 1) & mask {
		ei := c.idxVals[i]
		if ei < 0 {
			return -1
		}
		if c.idxKeys[i] == endIP {
			return ei
		}
	}
}

// ensureEntry returns the entry index for endIP, appending a fresh record
// (and growing the index past 3/4 load) if none exists.
func (c *Cache) ensureEntry(endIP isa.Addr) int32 {
	if ei := c.entryOf(endIP); ei >= 0 {
		return ei
	}
	if 4*(len(c.entries)+1) > 3*len(c.idxVals) {
		c.growIndex()
	}
	ei := int32(len(c.entries))
	c.entries = append(c.entries, entryRec{endIP: endIP, head: -1, tail: -1})
	c.idxInsert(endIP, ei)
	return ei
}

func (c *Cache) idxInsert(endIP isa.Addr, ei int32) {
	mask := uint64(len(c.idxVals) - 1)
	i := hashAddr(endIP) & mask
	for c.idxVals[i] >= 0 {
		i = (i + 1) & mask
	}
	c.idxKeys[i] = endIP
	c.idxVals[i] = ei
}

func (c *Cache) growIndex() {
	oldKeys, oldVals := c.idxKeys, c.idxVals
	n := 2 * len(c.idxVals)
	c.idxKeys = make([]isa.Addr, n)
	c.idxVals = make([]int32, n)
	for i := range c.idxVals {
		c.idxVals[i] = -1
	}
	for i, v := range oldVals {
		if v >= 0 {
			c.idxInsert(oldKeys[i], v)
		}
	}
}

// vrseq returns the variant's stored reverse-order uop sequence.
func (c *Cache) vrseq(vi int32) []isa.UopID {
	off := int(vi) * c.quota
	return c.rseqArena[off : off+int(c.variants[vi].rlen)]
}

// vrefs returns the variant's initialized per-order line references; the
// slice aliases the arena, so writes through it persist.
func (c *Cache) vrefs(vi int32) []lineRef {
	off := int(vi) * c.maxOrders
	return c.refsArena[off : off+int(c.variants[vi].nrefs)]
}

// chunk returns the uops of the given order of a variant (reverse-order
// slice).
func (c *Cache) chunk(vi int32, order int) []isa.UopID {
	lo := order * c.cfg.BankUops
	hi := lo + c.cfg.BankUops
	if n := int(c.variants[vi].rlen); hi > n {
		hi = n
	}
	off := int(vi) * c.quota
	return c.rseqArena[off+lo : off+hi]
}

// ordersOf returns how many lines a sequence of n uops spans.
func (c *Cache) ordersOf(n int) int {
	return (n + c.cfg.BankUops - 1) / c.cfg.BankUops
}

// variantByID walks the entry's variant list for the given id, returning
// the variant index or -1. Ids are unique within an entry and never
// reused, so the walk order cannot matter for the result.
func (c *Cache) variantByID(eidx int32, id uint32) int32 {
	for vi := c.entries[eidx].head; vi >= 0; vi = c.variants[vi].next {
		if c.variants[vi].id == id {
			return vi
		}
	}
	return -1
}

// setOf derives the set index from a XB ending address.
func (c *Cache) setOf(endIP isa.Addr) int {
	return int(uint64(endIP>>1) & uint64(c.cfg.Sets-1))
}

// lineIndex returns the flat index of the physical line (set, bank, way).
func (c *Cache) lineIndex(set, bank, way int) int {
	return (set*c.cfg.Banks+bank)*c.cfg.Ways + way
}

// lineMatches reports whether line li currently holds the given chunk
// identity: same ending address, order, and content.
func (c *Cache) lineMatches(li int, endIP isa.Addr, order int, chunk []isa.UopID) bool {
	h := &c.lineHdrs[li]
	if h.tag != endIP || h.meta != metaFor(order, len(chunk)) {
		return false
	}
	off := li * c.cfg.BankUops
	uops := c.lineUops[off : off+len(chunk)]
	for i, u := range chunk {
		if uops[i] != u {
			return false
		}
	}
	return true
}

// stampFor biases LRU stamps so that within one access the head-most
// (highest-order) lines age first — the head-line eviction preference of
// section 3.10.
func (c *Cache) stampFor(order int) uint64 {
	return c.tick<<3 + uint64(7-order)
}

// findLine scans the set for a line holding the given chunk identity,
// skipping banks in excludeBanks (a variant's chunks must sit in distinct
// banks, and duplicate chunk copies can exist in several banks).
func (c *Cache) findLine(set int, endIP isa.Addr, order int, chunk []isa.UopID, excludeBanks uint) (lineRef, bool) {
	for b := 0; b < c.cfg.Banks; b++ {
		if excludeBanks&(1<<uint(b)) != 0 {
			continue
		}
		for w := 0; w < c.cfg.Ways; w++ {
			if c.lineMatches(c.lineIndex(set, b, w), endIP, order, chunk) {
				return lineRef{bank: int8(b), way: int8(w)}, true
			}
		}
	}
	return lineRef{}, false
}

// ensureChunk makes the chunk resident: it shares an existing identical
// line when possible, otherwise allocates one. usedBanks are the banks the
// same variant already occupies (a XB must spread over distinct banks so
// it can be fetched in one cycle); avoidBanks are banks to dodge for
// bank-conflict reasons (smart placement). Returns the line location.
func (c *Cache) ensureChunk(set int, endIP isa.Addr, order int, chunk []isa.UopID, usedBanks, avoidBanks uint, share bool) (lineRef, uint) {
	if ref, ok := c.findLine(set, endIP, order, chunk, usedBanks); ok && share {
		// Shared with an existing variant — the redundancy-free property.
		// (Copies in banks this variant already uses are skipped; if none
		// remains, a second copy is placed, a rare bounded redundancy at
		// chunk granularity.)
		c.Shares++
		return ref, usedBanks | 1<<uint(ref.bank)
	}
	ref := c.pickVictim(set, usedBanks, avoidBanks)
	li := c.lineIndex(set, int(ref.bank), int(ref.way))
	h := &c.lineHdrs[li]
	if h.meta&lineValid != 0 {
		c.Evictions++
		c.usedSlots -= int(h.meta & lineCountMask)
	} else {
		c.validLines++
	}
	c.usedSlots += len(chunk)
	c.Allocs++
	c.tick++
	h.tag = endIP
	h.meta = metaFor(order, len(chunk))
	h.stamp = c.stampFor(order)
	copy(c.lineUops[li*c.cfg.BankUops:], chunk)
	return ref, usedBanks | 1<<uint(ref.bank)
}

// swapLines switches the full content of two physical lines (tag, meta,
// stamp, uop slots) — the dynamic-placement line switch of section 3.10.
// Occupancy totals are unchanged by construction.
func (c *Cache) swapLines(li, lj int) {
	c.lineHdrs[li], c.lineHdrs[lj] = c.lineHdrs[lj], c.lineHdrs[li]
	bu := c.cfg.BankUops
	a := c.lineUops[li*bu : li*bu+bu]
	b := c.lineUops[lj*bu : lj*bu+bu]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// pickVictim chooses where to place a new chunk: banks not in usedBanks
// (hard constraint), preferring invalid ways, then banks outside
// avoidBanks (smart placement), then global LRU.
func (c *Cache) pickVictim(set int, usedBanks, avoidBanks uint) lineRef {
	best := lineRef{bank: -1}
	bestScore := ^uint64(0)
	considered := false
	for pass := 0; pass < 2; pass++ {
		for b := 0; b < c.cfg.Banks; b++ {
			if usedBanks&(1<<uint(b)) != 0 {
				continue
			}
			if c.cfg.SmartPlacement && pass == 0 && avoidBanks&(1<<uint(b)) != 0 {
				continue
			}
			for w := 0; w < c.cfg.Ways; w++ {
				h := &c.lineHdrs[c.lineIndex(set, b, w)]
				score := h.stamp
				if h.meta&lineValid == 0 {
					score = 0
				}
				if !considered || score < bestScore {
					best = lineRef{bank: int8(b), way: int8(w)}
					bestScore = score
					considered = true
				}
			}
		}
		if considered || !c.cfg.SmartPlacement {
			break
		}
		// All non-used banks were in avoidBanks; retry without avoidance.
	}
	if best.bank < 0 {
		// A XB wider than the bank count would hit this; geometry
		// validation (quota == banks*bankUops) makes it unreachable.
		panic("xbcore: no bank available for placement")
	}
	return best
}

// residentBanksFrom returns the bank mask of the variant's resident,
// matching chunks with order >= fromOrder. Placement and repair of lower
// orders must avoid these banks so the whole variant stays fetchable in
// one cycle.
func (c *Cache) residentBanksFrom(set int, endIP isa.Addr, vi int32, fromOrder int) uint {
	orders := c.ordersOf(int(c.variants[vi].rlen))
	refs := c.vrefs(vi)
	banks := uint(0)
	for o := fromOrder; o < orders && o < len(refs); o++ {
		ref := refs[o]
		if ref.bank < 0 {
			continue
		}
		if c.lineMatches(c.lineIndex(set, int(ref.bank), int(ref.way)), endIP, o, c.chunk(vi, o)) {
			banks |= 1 << uint(ref.bank)
		}
	}
	return banks
}

// commonReversePrefix returns how many leading (from-the-end) uops two
// sequences share.
func commonReversePrefix(a, b []isa.UopID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// InsertKind reports which of section 3.3's cases an insert hit.
type InsertKind int

const (
	InsertNew       InsertKind = iota // no tag match: fresh XB
	InsertContained                   // case 1: existing XB contains the new one
	InsertExtended                    // case 2: new XB extends an existing one at its head
	InsertComplex                     // case 3: same suffix, different prefix
)

// String names the insert case.
func (k InsertKind) String() string {
	switch k {
	case InsertNew:
		return "new"
	case InsertContained:
		return "contained"
	case InsertExtended:
		return "extended"
	case InsertComplex:
		return "complex"
	default:
		return "unknown"
	}
}

// Insert stores the XB with ending address endIP and reverse-order uop
// sequence rseq, implementing the build algorithm of section 3.3. It
// returns the variant the sequence now lives in, the insert case, and
// whether every needed line was already resident (which is what allows the
// frontend to switch back to delivery mode). rseq must not alias the
// cache's own storage (frontends pass their per-run cut scratch).
func (c *Cache) Insert(endIP isa.Addr, rseq []isa.UopID, avoidBanks uint) (id uint32, kind InsertKind, wasResident bool) {
	if len(rseq) == 0 || len(rseq) > c.quota {
		panic("xbcore: insert of empty or over-quota XB")
	}
	set := c.setOf(endIP)
	eidx := c.ensureEntry(endIP)

	// Look for a related variant, in insertion order.
	var bestVi int32 = -1
	bestCommon := 0
	for vi := c.entries[eidx].head; vi >= 0; vi = c.variants[vi].next {
		common := commonReversePrefix(rseq, c.vrseq(vi))
		if common > bestCommon || (bestVi < 0 && common > 0) {
			bestVi, bestCommon = vi, common
		}
	}

	switch {
	case bestVi >= 0 && bestCommon == len(rseq) && int(c.variants[bestVi].rlen) >= len(rseq):
		// Case 1: the existing XB contains (or equals) the new one. Only
		// repair lines that were lost since.
		c.Containments++
		resident := c.materialize(set, eidx, bestVi, len(rseq), avoidBanks, true)
		return c.variants[bestVi].id, InsertContained, resident
	case bestVi >= 0 && bestCommon == int(c.variants[bestVi].rlen):
		// Case 2: the new XB extends the existing one at its head. The
		// reverse-order storage means nothing moves: rewrite the boundary
		// chunk (it gains uops) and add head chunks.
		c.Extensions++
		var oldRseq []isa.UopID
		if c.cfg.Check {
			oldRseq = append(oldRseq, c.vrseq(bestVi)...)
		}
		copy(c.rseqArena[int(bestVi)*c.quota:], rseq)
		c.variants[bestVi].rlen = int32(len(rseq))
		if c.cfg.Check && c.checkErr == nil {
			if kept := commonReversePrefix(c.vrseq(bestVi), oldRseq); kept != len(oldRseq) {
				c.checkErr = fmt.Errorf("xbcore: check: head extension of %#x moved stored uops (kept %d of %d)",
					endIP, kept, len(oldRseq))
			}
		}
		resident := c.materialize(set, eidx, bestVi, len(rseq), avoidBanks, true)
		_ = resident // extension always writes at least the boundary chunk
		return c.variants[bestVi].id, InsertExtended, false
	case bestVi >= 0 && bestCommon > 0 && c.cfg.ComplexXB:
		// Case 3: same suffix, different prefix — a complex XB. The new
		// variant shares every full chunk inside the common suffix.
		c.ComplexXBs++
		vi := c.newVariant(eidx, rseq)
		c.materialize(set, eidx, vi, len(rseq), avoidBanks, true)
		return c.variants[vi].id, InsertComplex, false
	default:
		// Without complex-XB support, variants never share chunk lines,
		// reintroducing (bounded) same-ending-address redundancy.
		vi := c.newVariant(eidx, rseq)
		c.materialize(set, eidx, vi, len(rseq), avoidBanks, c.cfg.ComplexXB)
		return c.variants[vi].id, InsertNew, false
	}
}

// CheckErr returns the first violation the insert-time checks recorded.
// Always nil unless Config.Check is set.
func (c *Cache) CheckErr() error { return c.checkErr }

// newVariant appends a variant record and carves its fixed-size rseq and
// refs slabs out of the arenas; growth is amortized doubling, so a warm
// cache appends without allocating.
func (c *Cache) newVariant(eidx int32, rseq []isa.UopID) int32 {
	vi := int32(len(c.variants))
	e := &c.entries[eidx]
	c.variants = append(c.variants, variantRec{next: -1, entry: eidx, id: e.nextID, rlen: int32(len(rseq))})
	c.rseqArena = grown(c.rseqArena, c.quota)
	copy(c.rseqArena[int(vi)*c.quota:], rseq)
	c.refsArena = grown(c.refsArena, c.maxOrders)
	e.nextID++
	if e.head < 0 {
		e.head = vi
	} else {
		c.variants[e.tail].next = vi
	}
	e.tail = vi
	return vi
}

// grown extends s by n elements (zero or stale values; callers overwrite
// before reading), doubling the backing array when capacity runs out.
func grown[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s[:len(s)+n]
	}
	ns := make([]T, len(s)+n, 2*(len(s)+n))
	copy(ns, s)
	return ns
}

// materialize ensures the first upTo uops of the variant are resident,
// sharing or allocating lines chunk by chunk. It returns whether
// everything was already resident (no allocation happened).
func (c *Cache) materialize(set int, eidx, vi int32, upTo int, avoidBanks uint, share bool) bool {
	endIP := c.entries[eidx].endIP
	orders := c.ordersOf(upTo)
	if total := int32(c.ordersOf(int(c.variants[vi].rlen))); c.variants[vi].nrefs < total {
		refs := c.refsArena[int(vi)*c.maxOrders:]
		for i := c.variants[vi].nrefs; i < total; i++ {
			refs[i] = lineRef{bank: -1}
		}
		c.variants[vi].nrefs = total
	}
	refs := c.vrefs(vi)
	// First pass: find which orders are already resident and which banks
	// they pin. Resident chunks beyond the repaired range pin their banks
	// too, so the variant never ends up with two chunks in one bank.
	usedBanks := c.residentBanksFrom(set, endIP, vi, orders)
	resident := c.residentScratch[:orders]
	for o := range resident {
		resident[o] = false
	}
	allResident := true
	for o := 0; o < orders; o++ {
		chunk := c.chunk(vi, o)
		ref := refs[o]
		if ref.bank >= 0 && usedBanks&(1<<uint(ref.bank)) == 0 &&
			c.lineMatches(c.lineIndex(set, int(ref.bank), int(ref.way)), endIP, o, chunk) {
			resident[o] = true
			usedBanks |= 1 << uint(ref.bank)
			continue
		}
		if fr, ok := c.findLine(set, endIP, o, chunk, usedBanks); ok && share {
			refs[o] = fr
			resident[o] = true
			usedBanks |= 1 << uint(fr.bank)
			c.Shares++
			continue
		}
		allResident = false
	}
	if allResident {
		// Refresh LRU so a rebuilt-but-resident XB stays warm.
		c.tick++
		for o := 0; o < orders; o++ {
			ref := refs[o]
			c.lineHdrs[c.lineIndex(set, int(ref.bank), int(ref.way))].stamp = c.stampFor(o)
		}
		return true
	}
	// Second pass: place the missing chunks.
	for o := 0; o < orders; o++ {
		if resident[o] {
			continue
		}
		chunk := c.chunk(vi, o)
		ref, nowUsed := c.ensureChunk(set, endIP, o, chunk, usedBanks, avoidBanks, share)
		usedBanks = nowUsed
		refs[o] = ref
	}
	return false
}
