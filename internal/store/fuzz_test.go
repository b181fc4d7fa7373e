package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for the three readers that parse untrusted bytes: the
// record scanner, the export reader, and Open itself over arbitrary
// segment contents. The invariants under fuzz are no panics, no record
// served that fails its checksum, and a scan end point that never exceeds
// the input.

// validSegment frames a few records for the seed corpus.
func validSegment(kv ...string) []byte {
	var buf bytes.Buffer
	for i := 0; i+1 < len(kv); i += 2 {
		rec, err := encodeRecord(kv[i], []byte(kv[i+1]))
		if err != nil {
			panic(err)
		}
		buf.Write(rec)
	}
	return buf.Bytes()
}

func FuzzScanRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add(validSegment("alpha", "one", "beta", "two"))
	f.Add(append(validSegment("gamma", "three"), 0xDE, 0xAD, 0xBE))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	corrupt := validSegment("delta", "four", "epsilon", "five")
	corrupt[recHeaderLen+3] ^= 0x80
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		var visited int64
		end, st, err := scanRecords(bytes.NewReader(data), 0, func(off, size int64, crc uint32, key string, val []byte) error {
			if off < visited {
				t.Fatalf("visit offsets went backwards: %d after %d", off, visited)
			}
			if key == "" {
				t.Fatal("visited a record with an empty key")
			}
			if off+size > int64(len(data)) {
				t.Fatalf("record at %d size %d overruns %d-byte input", off, size, len(data))
			}
			// Re-verify: the visited body must actually checksum to crc.
			body := data[off+recHeaderLen : off+size]
			if recCRC(data[off:off+size]) != crc {
				t.Fatal("visited record's stored CRC mismatches the visit argument")
			}
			gotKey, gotVal, derr := decodeBody(body)
			if derr != nil || gotKey != key || !bytes.Equal(gotVal, val) {
				t.Fatal("visited record does not round-trip from its own bytes")
			}
			visited = off + size
			return nil
		})
		if err != nil {
			t.Fatalf("scanRecords returned an error on malformed input: %v", err)
		}
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("scan end %d outside [0, %d]", end, len(data))
		}
		if end < visited {
			t.Fatalf("scan end %d precedes last visited record end %d", end, visited)
		}
		_ = st
	})
}

func FuzzReadExport(f *testing.F) {
	// Seed with a genuine export, a truncation of it, and noise.
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("seed-%d", i), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			f.Fatal(err)
		}
	}
	var exp bytes.Buffer
	if _, err := s.WriteExport(&exp); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(exp.Bytes())
	f.Add(exp.Bytes()[:len(exp.Bytes())/2])
	f.Add([]byte("XBCEXP1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		count, err := ReadExport(bytes.NewReader(data), func(key string, val []byte) error {
			if key == "" {
				t.Fatal("export visit with empty key")
			}
			return nil
		})
		// A successful full read of fuzz input is only acceptable when the
		// trailer verification genuinely passed; spot-check the count fits
		// the bytes available.
		if err == nil {
			minBytes := int64(len(exportMagic)) + 8 + int64(count)*(recHeaderLen+2+1) + int64(len(trailerMagic)) + 12
			if int64(len(data)) < minBytes-int64(count)*3 { // generous lower bound
				t.Fatalf("ReadExport accepted %d records from %d bytes", count, len(data))
			}
		}
	})
}

// FuzzOpen throws arbitrary bytes at the segment: Open must never fail
// (records quarantine, files quarantine, tails truncate), the store must
// serve Puts afterwards, and a second open must agree with the first.
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte(segmentMagic), validSegment("a", "1")...))
	f.Add(append([]byte(segmentMagic), validSegment("a", "1", "b", "2", "b", "999")...))
	f.Add([]byte("garbage not a header"))
	torn := append([]byte(segmentMagic), validSegment("k", "v")...)
	f.Add(torn[:len(torn)-3])
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open on fuzzed input failed: %v", err)
		}
		// Whatever survived, the store must be writable and re-readable.
		if err := s.Put("fuzz-probe", []byte("alive")); err != nil {
			t.Fatalf("Put after fuzzed open: %v", err)
		}
		keys := s.Keys()
		snapshot := make(map[string][]byte, len(keys))
		for _, k := range keys {
			v, ok := s.Get(k)
			if !ok {
				continue // read-time quarantine is legitimate
			}
			snapshot[k] = v
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close after fuzzed open: %v", err)
		}
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("second Open failed: %v", err)
		}
		defer s2.Close()
		for k, v := range snapshot {
			got, ok := s2.Get(k)
			if !ok {
				t.Fatalf("record %q served by first open lost by second", k)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("record %q changed between opens", k)
			}
		}
	})
}

// FuzzPutGet pushes arbitrary key/value bytes through a full
// Put/Get/reopen cycle: anything accepted must round-trip bit exactly.
func FuzzPutGet(f *testing.F) {
	f.Add("key", []byte("value"))
	f.Add("k", []byte{})
	f.Add(string(bytes.Repeat([]byte("K"), 300)), bytes.Repeat([]byte{0}, 1000))
	f.Fuzz(func(t *testing.T, key string, val []byte) {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(key, val); err != nil {
			// Only boundable inputs may be rejected.
			if len(key) != 0 && len(key) <= maxKeyLen && 2+len(key)+len(val) <= maxBodyLen {
				t.Fatalf("Put rejected a legal record: %v", err)
			}
			s.Close()
			return
		}
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatal("accepted Put does not round-trip")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		got, ok = s2.Get(key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatal("accepted Put does not survive reopen")
		}
	})
}
