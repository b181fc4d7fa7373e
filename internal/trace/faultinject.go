package trace

import (
	"math/rand"
	"unsafe"

	"xbc/internal/isa"
)

// This file produces hostile variants of a stream for robustness testing:
// truncated, bit-flipped, and discontinuous streams. Every frontend must
// return an error or complete with degraded metrics on these inputs —
// never panic or hang. The injectors are deterministic (seeded) so a
// failing case reproduces exactly.

// Truncate returns a copy of s cut to its first n records (n past the end
// returns a full copy; n <= 0 returns an empty stream). A truncated stream
// models a trace file whose producer died mid-write: the final record's
// successor points at a record that no longer exists.
func Truncate(s *Stream, n int) *Stream {
	if n < 0 {
		n = 0
	}
	if n > len(s.Recs) {
		n = len(s.Recs)
	}
	return &Stream{
		Name: s.Name + ".trunc",
		Recs: append([]Rec(nil), s.Recs[:n]...),
	}
}

// addrBits is the width of isa.Addr. An address flip draws its bit below
// it: a shift past the width would leave the address as it was.
const addrBits = int(unsafe.Sizeof(isa.Addr(0))) * 8

// BitFlip returns a copy of s in which roughly rate*len(Recs) records have
// one field corrupted by a single bit flip, modelling storage or transport
// corruption that slipped past the format layer. Flips hit every field a
// record carries — address, successor, class, uop count, size, outcome —
// so downstream consumers see out-of-range classes, zero or oversized uop
// counts, and broken continuity. Deterministic in seed.
func BitFlip(s *Stream, seed int64, rate float64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	out := &Stream{Name: s.Name + ".bitflip", Recs: append([]Rec(nil), s.Recs...)}
	for i := range out.Recs {
		if rng.Float64() >= rate {
			continue
		}
		r := &out.Recs[i]
		switch rng.Intn(6) {
		case 0:
			r.IP ^= isa.Addr(1) << rng.Intn(addrBits)
		case 1:
			r.Next ^= isa.Addr(1) << rng.Intn(addrBits)
		case 2:
			r.Class ^= isa.Class(1) << rng.Intn(8)
		case 3:
			r.NumUops ^= 1 << rng.Intn(8)
		case 4:
			r.Size ^= 1 << rng.Intn(8)
		case 5:
			r.Taken = !r.Taken
		}
	}
	return out
}

// Discontinuities returns a copy of s in which every stride-th record's
// Next is redirected to an address no record occupies, breaking the
// continuity invariant Validate enforces (each Next must match the
// following record's IP). This models spliced or resynchronized traces —
// e.g. a sampling tracer that dropped windows of records.
func Discontinuities(s *Stream, stride int) *Stream {
	if stride < 1 {
		stride = 1
	}
	out := &Stream{Name: s.Name + ".gaps", Recs: append([]Rec(nil), s.Recs...)}
	for i := stride - 1; i < len(out.Recs); i += stride {
		out.Recs[i].Next ^= 0xdead000 // off every real instruction address
	}
	return out
}
