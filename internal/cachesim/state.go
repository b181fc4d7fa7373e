package cachesim

import (
	"fmt"

	"xbc/internal/snapshot"
)

// SaveState appends the table's dynamic state: its LRU clock, the bitmap
// of valid ways, and each valid way's tag and age (clock minus stamp),
// followed by the payload save appends (save is nil for a table without
// payloads). save and load get the way's key, which a payload can encode
// addresses against. Geometry is not stored; the restoring side rebuilds
// the table from its config first.
func (t *Table[P]) SaveState(w *snapshot.Writer, save func(w *snapshot.Writer, key uint32, p *P)) {
	w.U64(t.tick)
	w.Sparse(len(t.ways), func(i int) bool { return t.ways[i].valid })
	for i := range t.ways {
		e := &t.ways[i]
		if !e.valid {
			continue
		}
		w.U32(e.tag)
		w.U64(t.tick - e.stamp)
		if save != nil {
			save(w, e.tag, &e.data)
		}
	}
}

// LoadState restores state saved by SaveState into a same-geometry table,
// leaving every invalid way as a fresh table has it. load decodes one
// payload and returns the first problem its own bounds checks find; the
// table stops there and returns it.
func (t *Table[P]) LoadState(r *snapshot.Reader, load func(r *snapshot.Reader, key uint32, p *P) error) error {
	t.tick = r.U64()
	valid := r.Sparse(len(t.ways), 2) // one-byte tag and age at the least
	for i := range t.ways {
		e := &t.ways[i]
		if !valid.Has(i) {
			*e = way[P]{}
			continue
		}
		e.valid = true
		e.tag = r.U32()
		age := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if age > t.tick {
			return fmt.Errorf("cachesim: way %d is %d accesses old, clock %d", i, age, t.tick)
		}
		e.stamp = t.tick - age
		if load != nil {
			if err := load(r, e.tag, &e.data); err != nil {
				return err
			}
		}
	}
	return r.Err()
}
