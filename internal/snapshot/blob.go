package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"xbc/internal/lru"
)

// Blob envelope: a fixed magic, a format version, the payload length and
// a CRC-32 (IEEE) of the payload, then the payload bytes. The envelope is
// what makes a snapshot safe to trust from disk: a truncated file, a
// flipped bit or a blob written by a different simulator version all fail
// Open with an error — never a panic, never a silently wrong restore.
const (
	// Version is the snapshot format version. It must be bumped whenever
	// any SaveState encoding in the tree changes shape, so stale persisted
	// snapshots are rejected instead of misdecoded.
	Version = 2

	magic      = "XBSS"
	headerSize = 4 + 4 + 4 + 4 // magic, version, payload length, CRC-32
)

// Seal wraps an encoded payload in the versioned, checksummed envelope.
func Seal(payload []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(payload))
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[4:], Version)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[12:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// Open validates the envelope and returns the payload. Any defect —
// short header, wrong magic, version skew, length mismatch, checksum
// mismatch — is an error.
func Open(blob []byte) ([]byte, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("snapshot: blob too short: %d bytes", len(blob))
	}
	if string(blob[:4]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", blob[:4])
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != Version {
		return nil, fmt.Errorf("snapshot: version %d, want %d", v, Version)
	}
	n := binary.LittleEndian.Uint32(blob[8:])
	payload := blob[headerSize:]
	if uint64(n) != uint64(len(payload)) {
		return nil, fmt.Errorf("snapshot: payload length %d, header says %d", len(payload), n)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(blob[12:]) {
		return nil, fmt.Errorf("snapshot: checksum mismatch")
	}
	return payload, nil
}

// Stats counts what the manager did; the service exposes these as
// Prometheus counters (xbcd_snapshot_hits_total etc.).
type Stats struct {
	Hits         uint64 // Load found a usable blob (memory or backing)
	Misses       uint64 // Load found nothing
	Saves        uint64 // blobs stored
	DecodeErrors uint64 // blobs that failed Open/LoadState and were dropped
}

// Manager is a small bounded in-memory LRU of snapshots over an optional
// backing store, which the service wires to the crash-safe store under
// the "s:" key namespace. Keys are content hashes of (spec-minus-length,
// warmup uops) — see jobspec.SnapshotKey — so a hit is by construction
// the right warm state for the run asking.
type Manager struct {
	mem     *lru.Cache[string, []byte]
	backing lru.Backing

	hits, misses, saves, decodeErrors atomic.Uint64
}

// NewManager returns a manager holding at most maxEntries blobs in
// memory. backing may be nil (memory-only).
func NewManager(maxEntries int, backing lru.Backing) *Manager {
	return &Manager{mem: lru.New[string, []byte](maxEntries), backing: backing}
}

// Load returns the sealed blob for key, consulting memory then the
// backing store, and counts the hit or miss.
func (m *Manager) Load(key string) ([]byte, bool) {
	b, ok := m.mem.Get(key)
	if !ok && m.backing != nil {
		if b, ok = m.backing.Load(key); ok {
			m.mem.Put(key, b)
		}
	}
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return b, ok
}

// Save stores a sealed blob under key, in memory and (write-behind)
// in the backing store.
func (m *Manager) Save(key string, blob []byte) {
	m.mem.Put(key, blob)
	m.saves.Add(1)
	if m.backing != nil {
		m.backing.Save(key, blob)
	}
}

// Invalidate drops a blob that failed to decode, counting it, so a
// corrupt persisted snapshot costs one failed restore, not one per run.
func (m *Manager) Invalidate(key string) {
	m.mem.Remove(key)
	m.decodeErrors.Add(1)
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats {
	return Stats{Hits: m.hits.Load(), Misses: m.misses.Load(), Saves: m.saves.Load(), DecodeErrors: m.decodeErrors.Load()}
}
