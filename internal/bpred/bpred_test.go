package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xbc/internal/isa"
)

func TestGshareLearnsMonotonic(t *testing.T) {
	g := NewGshare(12)
	pc := isa.Addr(0x4000)
	// Always-taken branch: after warmup, prediction must be taken.
	for i := 0; i < 64; i++ {
		g.Update(pc, true)
	}
	if !g.Predict(pc) {
		t.Fatal("gshare failed to learn an always-taken branch")
	}
}

func TestGshareLearnsAlternating(t *testing.T) {
	// A strictly alternating branch is perfectly predictable once the
	// history registers the period.
	g := NewGshare(12)
	pc := isa.Addr(0x4400)
	taken := false
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		pred := g.Predict(pc)
		if i >= 2000 {
			total++
			if pred == taken {
				correct++
			}
		}
		g.Update(pc, taken)
		taken = !taken
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Fatalf("alternating accuracy %.2f, want >= 0.95", acc)
	}
}

func TestGshareReset(t *testing.T) {
	g := NewGshare(10)
	for i := 0; i < 32; i++ {
		g.Update(0x10, true)
	}
	g.Reset()
	if g.Predict(0x10) {
		t.Fatal("reset did not restore weakly-not-taken")
	}
	if g.histBits != 10 {
		t.Fatal("history bits changed")
	}
}

func TestGshareBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGshare(0)
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(12)
	pc := isa.Addr(0x8000)
	for i := 0; i < 8; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("bimodal failed to learn taken bias")
	}
	for i := 0; i < 8; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Fatal("bimodal failed to flip to not-taken")
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(16, 2)
	b.Insert(0x100, 0x900, isa.Jump)
	e, ok := b.Lookup(0x100)
	if !ok || e.Target != 0x900 || e.Class != isa.Jump {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	if _, ok := b.Lookup(0x104); ok {
		t.Fatal("phantom hit")
	}
	// Update in place.
	b.Insert(0x100, 0xA00, isa.Call)
	e, _ = b.Lookup(0x100)
	if e.Target != 0xA00 || e.Class != isa.Call {
		t.Fatalf("update failed: %+v", e)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	b := NewBTB(1, 2) // single set, 2 ways
	b.Insert(0x2, 0x100, isa.Jump)
	b.Insert(0x4, 0x200, isa.Jump)
	b.Lookup(0x2) // refresh 0x2
	b.Insert(0x6, 0x300, isa.Jump)
	if _, ok := b.Lookup(0x4); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := b.Lookup(0x2); !ok {
		t.Fatal("MRU entry evicted")
	}
}

func TestBTBReset(t *testing.T) {
	b := NewBTB(4, 2)
	b.Insert(0x10, 0x20, isa.Jump)
	b.Reset()
	if _, ok := b.Lookup(0x10); ok {
		t.Fatal("reset incomplete")
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := isa.Addr(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %v,%v want %v", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty stack succeeded")
	}
}

func TestRASWraparound(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if a, _ := r.Pop(); a != 3 {
		t.Fatalf("got %v want 3", a)
	}
	if a, _ := r.Pop(); a != 2 {
		t.Fatalf("got %v want 2", a)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("depth exceeded capacity")
	}
}

// TestRASMatchesReferenceStack checks the RAS against a plain bounded
// stack model under random push/pop sequences (wraparound drops the
// oldest entries).
func TestRASMatchesReferenceStack(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const depth = 8
		r := NewRAS(depth)
		var ref []isa.Addr
		for i := 0; i < 500; i++ {
			if rng.Intn(2) == 0 {
				a := isa.Addr(rng.Intn(1000))
				r.Push(a)
				ref = append(ref, a)
				if len(ref) > depth {
					ref = ref[1:]
				}
			} else {
				got, ok := r.Pop()
				if len(ref) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if !ok || got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndirectPredictorLastTarget(t *testing.T) {
	p := NewIndirectPredictor(8, 0)
	if _, ok := p.Predict(0x30); ok {
		t.Fatal("cold hit")
	}
	p.Update(0x30, 0x500)
	if tgt, ok := p.Predict(0x30); !ok || tgt != 0x500 {
		t.Fatalf("predict = %v,%v", tgt, ok)
	}
	p.Update(0x30, 0x600)
	if tgt, _ := p.Predict(0x30); tgt != 0x600 {
		t.Fatal("did not track last target")
	}
	p.Reset()
	if _, ok := p.Predict(0x30); ok {
		t.Fatal("reset incomplete")
	}
}

func TestIndirectPredictorHistoryDisambiguates(t *testing.T) {
	// With history, a site alternating A,B,A,B becomes predictable.
	p := NewIndirectPredictor(10, 8)
	pc := isa.Addr(0x44)
	targets := []isa.Addr{0xA00, 0xB00}
	correct, total := 0, 0
	for i := 0; i < 2000; i++ {
		want := targets[i%2]
		got, ok := p.Predict(pc)
		if i > 1000 {
			total++
			if ok && got == want {
				correct++
			}
		}
		p.Update(pc, want)
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("alternating indirect accuracy %.2f, want >= 0.9", acc)
	}
}
