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
	w.Counters(g.table)
}

// LoadState restores state saved by SaveState into a same-geometry
// predictor.
func (g *Gshare) LoadState(r *snapshot.Reader) error {
	if hb := uint(r.U64()); r.Err() == nil && hb != g.histBits {
		return fmt.Errorf("bpred: gshare history %d, want %d", hb, g.histBits)
	}
	g.hist = r.U64()
	r.CountersInto(g.table)
	return r.Err()
}

// SaveState appends the predictor's dynamic state.
func (b *Bimodal) SaveState(w *snapshot.Writer) {
	w.Counters(b.table)
}

// LoadState restores state saved by SaveState.
func (b *Bimodal) LoadState(r *snapshot.Reader) error {
	r.CountersInto(b.table)
	return r.Err()
}

// SaveState appends the predictor's dynamic state.
func (t *Tournament) SaveState(w *snapshot.Writer) {
	t.gshare.SaveState(w)
	t.bimodal.SaveState(w)
	w.Counters(t.choice)
}

// LoadState restores state saved by SaveState.
func (t *Tournament) LoadState(r *snapshot.Reader) error {
	if err := t.gshare.LoadState(r); err != nil {
		return err
	}
	if err := t.bimodal.LoadState(r); err != nil {
		return err
	}
	r.CountersInto(t.choice)
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

// SaveState appends the BTB's dynamic state: its LRU clock, the bitmap
// of valid entries, and each valid entry's tag, target (as a delta from
// the tag), class and age (clock minus stamp).
func (b *BTB) SaveState(w *snapshot.Writer) {
	w.U64(b.tick)
	w.Sparse(len(b.data), func(i int) bool { return b.data[i].Valid })
	for i, e := range b.data {
		if !e.Valid {
			continue
		}
		w.U64(uint64(e.Tag))
		w.AddrFrom(e.Tag, e.Target)
		w.U8(uint8(e.Class))
		w.U64(b.tick - b.clock[i])
	}
}

// LoadState restores state saved by SaveState into a same-geometry BTB,
// leaving every invalid entry as a fresh BTB has it.
func (b *BTB) LoadState(r *snapshot.Reader) error {
	b.tick = r.U64()
	valid := r.Sparse(len(b.data), 4) // one-byte tag, target, class and age
	for i := range b.data {
		if !valid.Has(i) {
			b.data[i], b.clock[i] = BTBEntry{}, 0
			continue
		}
		tag := r.Addr()
		b.data[i] = BTBEntry{
			Tag:    tag,
			Target: r.AddrFrom(tag),
			Class:  isa.Class(r.U8()),
			Valid:  true,
		}
		age := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if age > b.tick {
			return fmt.Errorf("bpred: BTB entry %d is %d accesses old, clock %d", i, age, b.tick)
		}
		b.clock[i] = b.tick - age
	}
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

// SaveState appends the indirect predictor's dynamic state: its history,
// the bitmap of valid entries, and each valid entry's tag and target (as
// a delta from the tag).
func (p *IndirectPredictor) SaveState(w *snapshot.Writer) {
	w.U64(p.hist)
	w.Sparse(len(p.entries), func(i int) bool { return p.entries[i].valid })
	for _, e := range p.entries {
		if e.valid {
			w.U64(uint64(e.tag))
			w.AddrFrom(e.tag, e.target)
		}
	}
}

// LoadState restores state saved by SaveState into a same-geometry
// predictor, leaving every invalid entry as a fresh predictor has it.
func (p *IndirectPredictor) LoadState(r *snapshot.Reader) error {
	p.hist = r.U64()
	valid := r.Sparse(len(p.entries), 2) // one-byte tag and target
	for i := range p.entries {
		if !valid.Has(i) {
			p.entries[i] = indirectEntry{}
			continue
		}
		tag := r.Addr()
		p.entries[i] = indirectEntry{tag: tag, target: r.AddrFrom(tag), valid: true}
	}
	return r.Err()
}
