package cachesim

import (
	"xbc/internal/snapshot"
)

// SaveState appends the table's dynamic state: its LRU clock and every
// way's valid bit, tag and stamp, each followed by the payload save
// appends (save is nil for a table without payloads). Geometry is not
// stored; the restoring side rebuilds the table from its config first.
func (t *Table[P]) SaveState(w *snapshot.Writer, save func(*snapshot.Writer, *P)) {
	w.U64(t.tick)
	w.Len(len(t.ways))
	for i := range t.ways {
		e := &t.ways[i]
		w.Bool(e.valid)
		w.U32(e.tag)
		w.U64(e.stamp)
		if save != nil {
			save(w, &e.data)
		}
	}
}

// LoadState restores state saved by SaveState into a same-geometry table.
// load decodes one payload and returns the first problem its own bounds
// checks find; the table stops there and returns it.
func (t *Table[P]) LoadState(r *snapshot.Reader, load func(*snapshot.Reader, *P) error) error {
	t.tick = r.U64()
	r.LenExact(len(t.ways))
	for i := range t.ways {
		e := &t.ways[i]
		e.valid = r.Bool()
		e.tag = r.U32()
		e.stamp = r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if load != nil {
			if err := load(r, &e.data); err != nil {
				return err
			}
		}
	}
	return r.Err()
}
