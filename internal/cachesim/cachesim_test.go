package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xbc/internal/snapshot"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Sets: 64, Ways: 4, LineBytes: 32}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Sets: 0, Ways: 1, LineBytes: 32},
		{Sets: 3, Ways: 1, LineBytes: 32}, // not a power of two
		{Sets: 4, Ways: 0, LineBytes: 32},
		{Sets: 4, Ways: 1, LineBytes: 0},
		{Sets: 4, Ways: 1, LineBytes: 48}, // not a power of two
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

// access is a presence cache's touch: a hit refreshes the key, a miss
// fills it.
func access(tb *Table[struct{}], key uint32) bool {
	if tb.Lookup(key) != nil {
		return true
	}
	tb.Insert(key)
	return false
}

func TestColdMissThenHit(t *testing.T) {
	tb := NewTable[int](16, 2, 0)
	if tb.Lookup(0x80) != nil {
		t.Fatal("cold lookup hit")
	}
	*tb.Insert(0x80) = 7
	if p := tb.Lookup(0x80); p == nil || *p != 7 {
		t.Fatalf("lookup after insert = %v", p)
	}
	if tb.Lookup(0x81) != nil {
		t.Fatal("neighbouring key hit while cold")
	}
}

func TestLRUEviction(t *testing.T) {
	// One set, 2 ways: the third distinct key evicts the LRU.
	tb := NewTable[struct{}](1, 2, 0)
	access(tb, 0) // miss, fill A
	access(tb, 1) // miss, fill B
	access(tb, 0) // hit A (B becomes LRU)
	access(tb, 2) // miss, evicts B
	if tb.Lookup(1) != nil {
		t.Fatal("B not evicted but was LRU")
	}
	if tb.Lookup(0) == nil {
		t.Fatal("A evicted but was MRU")
	}
	if tb.Lookup(2) == nil {
		t.Fatal("C missing after fill")
	}
}

// TestIndexShift checks that the key's low shift bits select nothing:
// keys differing only there share a set, yet stay distinct entries.
func TestIndexShift(t *testing.T) {
	tb := NewTable[struct{}](4, 1, 1)
	access(tb, 0x10)
	access(tb, 0x11) // same set as 0x10 under shift 1: evicts it
	if tb.Lookup(0x10) != nil || tb.Lookup(0x11) == nil {
		t.Fatal("keys 0x10 and 0x11 must share one 1-way set")
	}
	access(tb, 0x12) // next set
	if tb.Lookup(0x11) == nil {
		t.Fatal("key in another set evicted 0x11")
	}
}

// TestWorkingSetFits checks the fundamental cache property: a working set
// of at most ways keys per set always hits after one warmup pass,
// regardless of access order.
func TestWorkingSetFits(t *testing.T) {
	const sets, ways = 8, 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable[struct{}](sets, ways, 0)
		// Build a working set with exactly ways keys in each set.
		var keys []uint32
		for set := 0; set < sets; set++ {
			for w := 0; w < ways; w++ {
				keys = append(keys, uint32(w*sets+set))
			}
		}
		for _, k := range keys {
			access(tb, k)
		}
		// Any access order over the same keys must now hit forever.
		for i := 0; i < 4*len(keys); i++ {
			if !access(tb, keys[rng.Intn(len(keys))]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHitsPlusMissesConserved checks accounting under random access
// against a reference true-LRU model (each set a recency-ordered list):
// every access is one hit or one miss, and the table hits exactly when
// the reference does.
func TestHitsPlusMissesConserved(t *testing.T) {
	const sets, ways = 4, 2
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable[struct{}](sets, ways, 0)
		ref := make([][]uint32, sets) // most recent first
		total := int(n%2048) + 1
		hits, misses := 0, 0
		for i := 0; i < total; i++ {
			k := uint32(rng.Intn(64))
			set := ref[k%sets]
			at := -1
			for j, r := range set {
				if r == k {
					at = j
				}
			}
			if at >= 0 {
				set = append(set[:at], set[at+1:]...)
			} else if len(set) == ways {
				set = set[:ways-1]
			}
			ref[k%sets] = append([]uint32{k}, set...)
			hit := access(tb, k)
			if hit != (at >= 0) {
				return false
			}
			if hit {
				hits++
			} else {
				misses++
			}
		}
		return hits+misses == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// fill marks way i of set 0 valid with key and stamp.
func fill[P any](tb *Table[P], i int, key uint32, stamp uint64) {
	tb.ways[i].valid, tb.ways[i].tag, tb.ways[i].stamp = true, key, stamp
}

func TestInsertSameKeyOverwritesInPlace(t *testing.T) {
	tb := NewTable[int](1, 4, 0)
	for i := 0; i < 4; i++ {
		fill(tb, i, uint32(10+i), uint64(4-i)) // way 3 is the LRU
		tb.ways[i].data = i
	}
	tb.tick = 4
	if p := tb.Insert(11); p != &tb.ways[1].data || *p != 1 {
		t.Fatalf("re-inserting key 11 did not claim its own way 1")
	}
	for i := 0; i < 4; i++ {
		if tb.Lookup(uint32(10+i)) == nil {
			t.Errorf("key %d lost by an in-place overwrite", 10+i)
		}
	}
}

func TestInsertTakesLastInvalidWay(t *testing.T) {
	tb := NewTable[int](1, 4, 0)
	if p := tb.Insert(1); p != &tb.ways[3].data {
		t.Fatal("empty set: first insert did not take the last way")
	}
	if p := tb.Insert(2); p != &tb.ways[2].data {
		t.Fatal("second insert did not take the last remaining invalid way")
	}

	// Invalid ways beat the LRU valid one, wherever they sit.
	tb = NewTable[int](1, 4, 0)
	fill(tb, 0, 10, 5)
	fill(tb, 2, 12, 1) // the LRU valid way
	tb.tick = 5
	if p := tb.Insert(20); p != &tb.ways[3].data {
		t.Fatal("insert skipped the last invalid way 3")
	}
	if p := tb.Insert(21); p != &tb.ways[1].data {
		t.Fatal("insert took a valid way while way 1 was invalid")
	}
	// Full set: the least stamp goes, the first of equals on a tie.
	if p := tb.Insert(22); p != &tb.ways[2].data {
		t.Fatal("full set: insert did not evict the LRU way 2")
	}
	tb = NewTable[int](1, 2, 0)
	fill(tb, 0, 1, 3)
	fill(tb, 1, 2, 3)
	if p := tb.Insert(3); p != &tb.ways[0].data {
		t.Fatal("equal stamps: insert did not take the first way")
	}
}

func TestInsertReusesVictimStorage(t *testing.T) {
	tb := NewTable[[]int](1, 1, 0)
	p := tb.Insert(1)
	*p = append(make([]int, 0, 8), 1, 2, 3)
	backing := &(*p)[:1][0]
	q := tb.Insert(2) // evicts key 1
	if tb.Lookup(1) != nil {
		t.Fatal("key 1 survived its eviction")
	}
	if len(*q) != 3 || cap(*q) != 8 || &(*q)[:1][0] != backing {
		t.Fatalf("victim payload not handed back for reuse: len %d cap %d", len(*q), cap(*q))
	}
}

func TestEachVisitsValidWays(t *testing.T) {
	tb := NewTable[int](4, 2, 0)
	for _, k := range []uint32{1, 2, 5, 9} { // 1, 5, 9 share set 1: 1 is evicted
		*tb.Insert(k) = int(k)
	}
	sum, n := 0, 0
	tb.Each(func(p *int) { sum += *p; n++ })
	if n != 3 || sum != 2+5+9 {
		t.Fatalf("Each visited %d ways summing %d, want 3 summing 16", n, sum)
	}
}

func TestStateRoundTrip(t *testing.T) {
	tb := NewTable[uint8](4, 2, 1)
	for k := uint32(0); k < 40; k += 3 {
		*tb.Insert(k) = uint8(k)
		tb.Lookup(k / 2)
	}
	save := func(w *snapshot.Writer, p *uint8) { w.U8(*p) }
	load := func(r *snapshot.Reader, p *uint8) error { *p = r.U8(); return nil }
	var w snapshot.Writer
	tb.SaveState(&w, save)

	got := NewTable[uint8](4, 2, 1)
	if err := got.LoadState(snapshot.NewReader(w.Bytes()), load); err != nil {
		t.Fatal(err)
	}
	if got.tick != tb.tick || !reflect.DeepEqual(got.ways, tb.ways) {
		t.Fatal("restored table differs from the saved one")
	}
	if err := NewTable[uint8](2, 2, 1).LoadState(snapshot.NewReader(w.Bytes()), load); err == nil {
		t.Fatal("restore into a smaller geometry succeeded")
	}
	if err := NewTable[uint8](4, 2, 1).LoadState(snapshot.NewReader(w.Bytes()[:30]), load); err == nil {
		t.Fatal("restore from a truncated payload succeeded")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, g := range [][2]int{{3, 1}, {0, 1}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%d sets, %d ways) should panic", g[0], g[1])
				}
			}()
			NewTable[struct{}](g[0], g[1], 0)
		}()
	}
}
