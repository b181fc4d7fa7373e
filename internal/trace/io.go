package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"xbc/internal/isa"
)

// Binary trace format (.xtr):
//
//	magic   "XTR1" (4 bytes)
//	name    uvarint length + bytes
//	count   uvarint record count
//	records, each:
//	    ipDelta   varint (signed delta from previous record's IP)
//	    nextDelta varint (signed delta of Next from this record's fallthrough)
//	    packed    1 byte: class(5 bits hi) | taken(1) | numUops-1 (2 bits)
//	    size      1 byte
//
// Deltas keep typical records to 4-5 bytes. The format is self-contained
// and versioned via the magic.

const magic = "XTR1"

// Write serializes the stream to w.
func Write(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(s.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(s.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(s.Recs))); err != nil {
		return err
	}
	var prevIP isa.Addr
	for _, r := range s.Recs {
		if err := putVarint(int64(r.IP) - int64(prevIP)); err != nil {
			return err
		}
		prevIP = r.IP
		if err := putVarint(int64(r.Next) - int64(r.FallThrough())); err != nil {
			return err
		}
		packed := byte(r.Class)<<3 | byte(r.NumUops-1)
		if r.Taken {
			packed |= 1 << 2
		}
		if err := bw.WriteByte(packed); err != nil {
			return err
		}
		if err := bw.WriteByte(r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a stream written by Write.
func Read(r io.Reader) (*Stream, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic (not an .xtr file)")
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading record count: %w", err)
	}
	const maxRecs = 1 << 31
	if count > maxRecs {
		return nil, fmt.Errorf("trace: unreasonable record count %d", count)
	}
	// Pre-allocate conservatively: a hostile header must not force a
	// multi-gigabyte allocation before any record has parsed.
	preAlloc := count
	if preAlloc > 1<<20 {
		preAlloc = 1 << 20
	}
	s := &Stream{Name: string(nameBuf), Recs: make([]Rec, 0, preAlloc)}
	var prevIP isa.Addr
	for i := uint64(0); i < count; i++ {
		ipDelta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: rec %d ip: %w", i, err)
		}
		ip, err := addrOf(int64(prevIP) + ipDelta)
		if err != nil {
			return nil, fmt.Errorf("trace: rec %d ip: %w", i, err)
		}
		prevIP = ip
		nextDelta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: rec %d next: %w", i, err)
		}
		packed, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: rec %d flags: %w", i, err)
		}
		size, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: rec %d size: %w", i, err)
		}
		rec := Rec{
			IP:      ip,
			Class:   isa.Class(packed >> 3),
			Taken:   packed&(1<<2) != 0,
			NumUops: packed&3 + 1,
			Size:    size,
		}
		if rec.Next, err = addrOf(int64(rec.FallThrough()) + nextDelta); err != nil {
			return nil, fmt.Errorf("trace: rec %d next: %w", i, err)
		}
		s.Recs = append(s.Recs, rec)
	}
	return s, nil
}

// addrOf narrows a decoded address to isa.Addr. A value outside
// [0, 2³²) is refused rather than truncated: it comes from a foreign or
// corrupt file, and truncating it would yield a different, valid-looking
// stream.
func addrOf(v int64) (isa.Addr, error) {
	if v < 0 || v > math.MaxUint32 {
		return 0, fmt.Errorf("address %#x outside the 32-bit address space", v)
	}
	return isa.Addr(v), nil
}
