// Package bpred implements the branch prediction structures the paper's
// frontends rely on: a GSHARE direction predictor [McF93] (the paper uses a
// 16-bit-history GSHARE for both the XBC and the TC), a bimodal predictor
// for ablations, a branch target buffer, a return address stack, and an
// indirect-target predictor (the XiBTB's prediction core).
package bpred

import "xbc/internal/isa"

// DirPredictor predicts conditional branch directions.
type DirPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc isa.Addr) bool
	// Update trains the predictor with the resolved outcome.
	Update(pc isa.Addr, taken bool)
	// Reset clears all state.
	Reset()
}

// Gshare is the GSHARE predictor of McFarling's TN-36: a table of 2-bit
// saturating counters indexed by (global history XOR branch address).
type Gshare struct {
	histBits uint
	hist     uint64
	table    []uint8 // 2-bit counters, weakly-not-taken initialised
}

// NewGshare returns a GSHARE with histBits of global history and a
// counter table of 2^histBits entries.
func NewGshare(histBits uint) *Gshare {
	if histBits == 0 || histBits > 30 {
		panic("bpred: gshare history bits out of range")
	}
	g := &Gshare{histBits: histBits}
	g.table = make([]uint8, 1<<histBits)
	g.Reset()
	return g
}

func (g *Gshare) index(pc isa.Addr) uint64 {
	mask := uint64(1)<<g.histBits - 1
	return (g.hist ^ uint64(pc>>1)) & mask
}

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc isa.Addr) bool {
	return g.table[g.index(pc)] >= 2
}

// Update trains the counter and shifts the outcome into the global
// history.
func (g *Gshare) Update(pc isa.Addr, taken bool) {
	i := g.index(pc)
	c := g.table[i]
	if taken {
		if c < 3 {
			g.table[i] = c + 1
		}
	} else if c > 0 {
		g.table[i] = c - 1
	}
	g.hist <<= 1
	if taken {
		g.hist |= 1
	}
}

// Reset clears history and re-initialises counters to weakly not-taken.
func (g *Gshare) Reset() {
	g.hist = 0
	for i := range g.table {
		g.table[i] = 1
	}
}

// Bimodal is a per-address table of 2-bit counters with no history — the
// classic baseline predictor, used in ablation studies.
type Bimodal struct {
	table []uint8
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^indexBits counters.
func NewBimodal(indexBits uint) *Bimodal {
	if indexBits == 0 || indexBits > 30 {
		panic("bpred: bimodal index bits out of range")
	}
	b := &Bimodal{table: make([]uint8, 1<<indexBits), mask: uint64(1)<<indexBits - 1}
	b.Reset()
	return b
}

// Predict returns the predicted direction for the branch at pc.
func (b *Bimodal) Predict(pc isa.Addr) bool {
	return b.table[uint64(pc>>1)&b.mask] >= 2
}

// Update trains the counter.
func (b *Bimodal) Update(pc isa.Addr, taken bool) {
	i := uint64(pc>>1) & b.mask
	c := b.table[i]
	if taken {
		if c < 3 {
			b.table[i] = c + 1
		}
	} else if c > 0 {
		b.table[i] = c - 1
	}
}

// Reset re-initialises counters to weakly not-taken.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 1
	}
}

var (
	_ DirPredictor = (*Gshare)(nil)
	_ DirPredictor = (*Bimodal)(nil)
)
