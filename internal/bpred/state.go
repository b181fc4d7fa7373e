package bpred

import (
	"fmt"

	"xbc/internal/isa"
	"xbc/internal/snapshot"
)

// Warm-state snapshot support: every predictor can serialize its dynamic
// state into a snapshot payload and restore it later. Geometry is NOT
// stored — the restoring side builds the structure from the spec and the
// blob must match it; a geometry mismatch is a decode error, never a
// silent misrestore. All LoadState methods range-check restored indices
// so a corrupt (but checksum-passing) blob cannot drive a panic later.

// SaveState appends the predictor's dynamic state.
func (g *Gshare) SaveState(w *snapshot.Writer) {
	w.U64(uint64(g.histBits))
	w.U64(g.hist)
	w.U8s(g.table)
}

// LoadState restores state saved by SaveState into a same-geometry
// predictor.
func (g *Gshare) LoadState(r *snapshot.Reader) error {
	if hb := uint(r.U64()); r.Err() == nil && hb != g.histBits {
		return fmt.Errorf("bpred: gshare history %d, want %d", hb, g.histBits)
	}
	g.hist = r.U64()
	r.U8sInto(g.table)
	return r.Err()
}

// SaveState appends the predictor's dynamic state.
func (b *Bimodal) SaveState(w *snapshot.Writer) {
	w.U8s(b.table)
}

// LoadState restores state saved by SaveState.
func (b *Bimodal) LoadState(r *snapshot.Reader) error {
	r.U8sInto(b.table)
	return r.Err()
}

// SaveState appends the predictor's dynamic state.
func (t *Tournament) SaveState(w *snapshot.Writer) {
	t.gshare.SaveState(w)
	t.bimodal.SaveState(w)
	w.U8s(t.choice)
}

// LoadState restores state saved by SaveState.
func (t *Tournament) LoadState(r *snapshot.Reader) error {
	if err := t.gshare.LoadState(r); err != nil {
		return err
	}
	if err := t.bimodal.LoadState(r); err != nil {
		return err
	}
	r.U8sInto(t.choice)
	return r.Err()
}

// Direction-predictor kind tags, so an interface-typed DirPredictor can
// round-trip through a blob.
const (
	dirTagGshare     = 1
	dirTagBimodal    = 2
	dirTagTournament = 3
)

// SaveDir appends an interface-typed direction predictor with a kind tag.
func SaveDir(w *snapshot.Writer, d DirPredictor) {
	switch p := d.(type) {
	case *Gshare:
		w.U8(dirTagGshare)
		p.SaveState(w)
	case *Bimodal:
		w.U8(dirTagBimodal)
		p.SaveState(w)
	case *Tournament:
		w.U8(dirTagTournament)
		p.SaveState(w)
	default:
		// Unknown implementations cannot snapshot; encode an explicit
		// invalid tag so restore fails loudly rather than misaligning.
		w.U8(0)
	}
}

// LoadDir restores a direction predictor saved by SaveDir into d, whose
// concrete type (from the config) must match the saved tag.
func LoadDir(r *snapshot.Reader, d DirPredictor) error {
	tag := r.U8()
	if err := r.Err(); err != nil {
		return err
	}
	switch p := d.(type) {
	case *Gshare:
		if tag != dirTagGshare {
			return fmt.Errorf("bpred: predictor tag %d, want gshare", tag)
		}
		return p.LoadState(r)
	case *Bimodal:
		if tag != dirTagBimodal {
			return fmt.Errorf("bpred: predictor tag %d, want bimodal", tag)
		}
		return p.LoadState(r)
	case *Tournament:
		if tag != dirTagTournament {
			return fmt.Errorf("bpred: predictor tag %d, want tournament", tag)
		}
		return p.LoadState(r)
	default:
		return fmt.Errorf("bpred: cannot restore unknown predictor type")
	}
}

// SaveState appends the BTB's dynamic state.
func (b *BTB) SaveState(w *snapshot.Writer) {
	w.Len(len(b.data))
	for _, e := range b.data {
		w.U64(uint64(e.Tag))
		w.U64(uint64(e.Target))
		w.U8(uint8(e.Class))
		w.Bool(e.Valid)
	}
	w.U64s(b.clock)
	w.U64(b.tick)
}

// LoadState restores state saved by SaveState into a same-geometry BTB.
func (b *BTB) LoadState(r *snapshot.Reader) error {
	r.LenExact(len(b.data))
	for i := range b.data {
		b.data[i] = BTBEntry{
			Tag:    r.Addr(),
			Target: r.Addr(),
			Class:  isa.Class(r.U8()),
			Valid:  r.Bool(),
		}
	}
	r.U64sInto(b.clock)
	b.tick = r.U64()
	return r.Err()
}

// SaveState appends the return stack's dynamic state.
func (s *RAS) SaveState(w *snapshot.Writer) {
	w.Len(len(s.slots))
	for _, a := range s.slots {
		w.U64(uint64(a))
	}
	w.Int(s.top)
	w.Int(s.depth)
}

// LoadState restores state saved by SaveState into a same-depth RAS.
func (s *RAS) LoadState(r *snapshot.Reader) error {
	r.LenExact(len(s.slots))
	for i := range s.slots {
		s.slots[i] = r.Addr()
	}
	s.top = r.Int()
	s.depth = r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if s.top < 0 || s.top >= len(s.slots) || s.depth < 0 || s.depth > len(s.slots) {
		return fmt.Errorf("bpred: RAS pointers out of range (top %d, depth %d of %d)", s.top, s.depth, len(s.slots))
	}
	return nil
}

// SaveState appends the indirect predictor's dynamic state.
func (p *IndirectPredictor) SaveState(w *snapshot.Writer) {
	w.U64(p.hist)
	w.Len(len(p.entries))
	for _, e := range p.entries {
		w.U64(uint64(e.tag))
		w.U64(uint64(e.target))
		w.Bool(e.valid)
	}
}

// LoadState restores state saved by SaveState into a same-geometry
// predictor.
func (p *IndirectPredictor) LoadState(r *snapshot.Reader) error {
	p.hist = r.U64()
	r.LenExact(len(p.entries))
	for i := range p.entries {
		e := &p.entries[i]
		e.tag = r.Addr()
		e.target = r.Addr()
		e.valid = r.Bool()
	}
	return r.Err()
}
