// Package cachesim provides the one set-associative array with true-LRU
// replacement that the instruction cache, the decoded cache and both BBTC
// tables are built on. The trace cache (path-associative lookup, eviction
// with redundancy accounting) and the XBC (banks, head-line preference)
// have placement rules that do not fit a plain table and keep their own
// arrays.
package cachesim

import "fmt"

// Config describes an instruction-cache geometry.
type Config struct {
	Sets      int // power of two
	Ways      int // >= 1
	LineBytes int // power of two; granularity of the address -> line mapping
}

// Validate reports the first problem with the geometry.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cachesim: sets %d must be a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cachesim: ways %d must be positive", c.Ways)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cachesim: line size %d must be a positive power of two", c.LineBytes)
	}
	return nil
}

// way is one entry of a Table: the caller's payload, its LRU stamp and
// its key tag.
type way[P any] struct {
	data  P
	stamp uint64
	tag   uint32
	valid bool
}

// Table is a set-associative array of ways tagged by a 32-bit key (an
// instruction address, or the line number of one) with true-LRU
// replacement. A key's set is (key >> shift) mod sets.
type Table[P any] struct {
	ways  []way[P] // sets*assoc, set-major
	assoc int
	shift uint
	mask  uint32
	tick  uint64
}

// NewTable returns an empty table of sets*ways entries indexed by key >>
// shift. It panics unless sets is a positive power of two and ways is
// positive: callers validate their geometry first.
func NewTable[P any](sets, ways int, shift uint) *Table[P] {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic(fmt.Sprintf("cachesim: bad table geometry %d sets x %d ways", sets, ways))
	}
	return &Table[P]{ways: make([]way[P], sets*ways), assoc: ways, shift: shift, mask: uint32(sets - 1)}
}

func (t *Table[P]) set(key uint32) []way[P] {
	base := int((key>>t.shift)&t.mask) * t.assoc
	return t.ways[base : base+t.assoc]
}

// Lookup returns the payload of the valid way holding key, refreshing its
// LRU stamp, or nil on a miss (which touches nothing).
func (t *Table[P]) Lookup(key uint32) *P {
	set := t.set(key)
	for i := range set {
		if w := &set[i]; w.valid && w.tag == key {
			t.tick++
			w.stamp = t.tick
			return &w.data
		}
	}
	return nil
}

// Insert claims a way for key and returns its payload for the caller to
// fill. The way is the valid one already holding key if there is one,
// else the last invalid way of the set, else the least recently used.
// The payload still holds what the way held before, so the caller can
// reuse its storage.
func (t *Table[P]) Insert(key uint32) *P {
	set := t.set(key)
	v := 0
	for i := range set {
		w := &set[i]
		if !w.valid {
			v = i
			continue
		}
		if w.tag == key {
			v = i
			break
		}
		if set[v].valid && w.stamp < set[v].stamp {
			v = i
		}
	}
	t.tick++
	w := &set[v]
	w.valid, w.tag, w.stamp = true, key, t.tick
	return &w.data
}

// Each calls fn with the payload of every valid way, in array order.
func (t *Table[P]) Each(fn func(*P)) {
	for i := range t.ways {
		if t.ways[i].valid {
			fn(&t.ways[i].data)
		}
	}
}
