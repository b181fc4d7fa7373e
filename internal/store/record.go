package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// On-disk record framing, shared by the segment and the export format:
//
//	u32 LE  bodyLen
//	u32 LE  CRC32C(body)   (Castagnoli polynomial)
//	body:
//	    u16 LE  keyLen
//	    keyLen  key bytes
//	    rest    value bytes
//
// A record is self-verifying: the checksum covers the whole body, so a
// bit flip anywhere inside it is detected, and the length prefix lets a
// scan step over a corrupt body to the next record. A record whose
// length prefix claims more bytes than the file holds is a torn tail —
// the signature of a crash mid-append.

// recHeaderLen is the fixed per-record prefix: bodyLen + CRC.
const recHeaderLen = 8

// maxBodyLen bounds one record body (key + value). A length prefix past
// this is treated as corruption, not an allocation request.
const maxBodyLen = 1 << 30

// maxKeyLen bounds the key; keys are content hashes plus a short
// namespace prefix, so 64 KiB is generous.
const maxKeyLen = 1<<16 - 1

// castagnoli is the CRC32C table used for every checksum in the store.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord frames (key, value) as one record.
func encodeRecord(key string, val []byte) ([]byte, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("store: empty key")
	}
	if len(key) > maxKeyLen {
		return nil, fmt.Errorf("store: key length %d exceeds %d", len(key), maxKeyLen)
	}
	bodyLen := 2 + len(key) + len(val)
	if bodyLen > maxBodyLen {
		return nil, fmt.Errorf("store: record body %d bytes exceeds %d", bodyLen, maxBodyLen)
	}
	rec := make([]byte, recHeaderLen+bodyLen)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(bodyLen))
	body := rec[recHeaderLen:]
	binary.LittleEndian.PutUint16(body[0:2], uint16(len(key)))
	copy(body[2:], key)
	copy(body[2+len(key):], val)
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(body, castagnoli))
	return rec, nil
}

// decodeBody splits a CRC-valid body into key and value.
func decodeBody(body []byte) (key string, val []byte, err error) {
	if len(body) < 2 {
		return "", nil, fmt.Errorf("store: body %d bytes is shorter than its key-length prefix", len(body))
	}
	keyLen := int(binary.LittleEndian.Uint16(body[0:2]))
	if 2+keyLen > len(body) {
		return "", nil, fmt.Errorf("store: key length %d overruns the %d-byte body", keyLen, len(body))
	}
	if keyLen == 0 {
		return "", nil, fmt.Errorf("store: empty key")
	}
	return string(body[2 : 2+keyLen]), body[2+keyLen:], nil
}

// recCRC reads the framed record's stored checksum.
func recCRC(rec []byte) uint32 {
	return binary.LittleEndian.Uint32(rec[4:8])
}

// scanStats tallies what a scan found beyond its valid records.
type scanStats struct {
	// quarantined counts structurally intact records whose checksum (or
	// body shape) failed mid-file: they are skipped, not served.
	quarantined uint64
	// torn reports whether the scan ended on a torn tail — a partial
	// header, a length prefix overrunning the file, or a checksum-invalid
	// final run of records — that the caller should truncate away.
	torn bool
}

// scanRecords walks the records in r (a section positioned after the file
// header, base is its absolute offset) and calls visit for each
// checksum-valid record with its absolute offset, total framed size, body
// checksum, key, and value. It returns the absolute offset just past the
// last valid record — everything beyond is either a torn tail or trailing
// corruption and is safe to truncate — plus the scan tallies. Corrupt
// records between valid ones are quarantined and skipped. scanRecords
// never fails on malformed input; only visit can return an error, which
// aborts the scan.
func scanRecords(r io.Reader, base int64, visit func(off, size int64, crc uint32, key string, val []byte) error) (int64, scanStats, error) {
	var st scanStats
	off := base
	validEnd := base
	var header [recHeaderLen]byte
	// pendingBad counts corrupt records parsed since the last valid one:
	// if valid records follow they were mid-file corruption (quarantined
	// for good); if the file ends first they are reclassified as a torn
	// tail and truncated.
	pendingBad := uint64(0)
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err != io.EOF {
				// A partial header is a torn tail.
				st.torn = true
			}
			break
		}
		bodyLen := binary.LittleEndian.Uint32(header[0:4])
		if bodyLen > maxBodyLen {
			// The length prefix itself is corrupt: there is no trustworthy
			// way to find the next record boundary, so the scan ends here
			// and the remainder is truncated as torn.
			st.torn = true
			break
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			// The file holds fewer bytes than the record claims: torn tail.
			st.torn = true
			break
		}
		recEnd := off + recHeaderLen + int64(bodyLen)
		wantCRC := binary.LittleEndian.Uint32(header[4:8])
		if crc32.Checksum(body, castagnoli) != wantCRC {
			pendingBad++
			off = recEnd
			continue
		}
		key, val, err := decodeBody(body)
		if err != nil {
			// Checksum-valid but structurally bad: treat like corruption.
			pendingBad++
			off = recEnd
			continue
		}
		st.quarantined += pendingBad
		pendingBad = 0
		if err := visit(off, recEnd-off, wantCRC, key, val); err != nil {
			return validEnd, st, err
		}
		off = recEnd
		validEnd = recEnd
	}
	if pendingBad > 0 {
		// Trailing corrupt records: reclassified as a torn tail (truncated
		// by the caller) rather than quarantined dead bytes.
		st.torn = true
	}
	return validEnd, st, nil
}
