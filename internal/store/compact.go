package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Compaction thresholds: a segment is worth rewriting once it is mostly
// garbage (dead versions of re-Put keys, quarantined bytes) and big
// enough for the rewrite to matter.
const (
	compactMinBytes      = 1 << 20
	compactGarbageFactor = 4
)

// needsCompactLocked reports whether the segment should be rewritten:
// over the configured size bound, or mostly dead bytes.
func (s *Store) needsCompactLocked() bool {
	if s.opts.MaxBytes > 0 && s.segSize > s.opts.MaxBytes {
		return true
	}
	payload := s.segSize - fileHeaderLen
	return payload > compactMinBytes && payload > compactGarbageFactor*s.liveBytes
}

// compact rewrites the live records into a fresh segment and atomically
// swaps it in. Safe to call any time; a crash at any point leaves a
// recoverable store (the swap is a single rename, and a stale temporary
// file is discarded on open).
func (s *Store) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, s.failed)
	}
	if err := s.compactLocked(); err != nil {
		return s.failLocked(err)
	}
	return nil
}

// compactLocked is the rewrite: evict past the size bound, copy the
// surviving records (oldest first, preserving insertion order) into
// segment.xbs.tmp, fsync it, rename it over the segment, then fsync the
// directory. Caller holds s.mu.
func (s *Store) compactLocked() error {
	s.evictLocked()
	tmpPath := filepath.Join(s.dir, segmentTmp)
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating compaction temp: %w", err)
	}
	// Until the rename, the temp file is disposable: any failure cleans
	// it up and leaves the old segment authoritative.
	abort := func(err error) error {
		closeQuiet(f)
		if rmErr := os.Remove(tmpPath); rmErr != nil && !os.IsNotExist(rmErr) {
			return fmt.Errorf("%w (and removing temp: %v)", err, rmErr)
		}
		return err
	}
	var newSize int64
	if err := s.writeStep(f, &newSize, []byte(segmentMagic), "compact.header.write"); err != nil {
		return abort(fmt.Errorf("store: writing compaction header: %w", err))
	}
	newIndex := make(map[string]recRef, len(s.index))
	newOrder := make([]string, 0, len(s.order))
	var newLive int64
	for _, key := range s.order {
		ref := s.index[key]
		rec := make([]byte, ref.size)
		if _, err := s.seg.ReadAt(rec, ref.off); err != nil {
			return abort(fmt.Errorf("store: compaction read of %q: %w", key, err))
		}
		if crc32.Checksum(rec[recHeaderLen:], castagnoli) != ref.crc {
			// Bit rot discovered mid-compaction: drop the record rather
			// than carry corruption into the new segment.
			s.stats.Quarantined++
			continue
		}
		off := newSize
		if err := s.writeStep(f, &newSize, rec, "compact.write"); err != nil {
			return abort(fmt.Errorf("store: compaction write of %q: %w", key, err))
		}
		newIndex[key] = recRef{off: off, size: ref.size, crc: ref.crc}
		newOrder = append(newOrder, key)
		newLive += ref.size
	}
	if err := s.syncStep(f, "compact.sync"); err != nil {
		return abort(fmt.Errorf("store: syncing compaction temp: %w", err))
	}
	if err := s.hookAt("compact.rename"); err != nil {
		return abort(fmt.Errorf("store: compaction rename: %w", err))
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, segmentName)); err != nil {
		return abort(fmt.Errorf("store: swapping compacted segment: %w", err))
	}
	// The rename is the commit point: f now IS the segment (same inode),
	// so the old handle is retired and writes continue on f, whose offset
	// already sits at the end.
	if err := s.syncDir(); err != nil {
		// The swap happened; a dir-sync failure only delays the rename's
		// durability. Latch degraded rather than pretend it didn't happen.
		closeQuiet(s.seg)
		s.adoptCompacted(f, newSize, newIndex, newOrder, newLive)
		return fmt.Errorf("store: syncing directory after swap: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		s.adoptCompacted(f, newSize, newIndex, newOrder, newLive)
		return fmt.Errorf("store: closing pre-compaction segment: %w", err)
	}
	s.adoptCompacted(f, newSize, newIndex, newOrder, newLive)
	s.stats.Compactions++
	return nil
}

// adoptCompacted installs the rewritten segment as the live one.
func (s *Store) adoptCompacted(f file, size int64, index map[string]recRef, order []string, live int64) {
	s.seg = f
	s.segSize = size
	s.index = index
	s.order = order
	s.liveBytes = live
}

// evictLocked drops the oldest-written live records until the live set
// fits the MaxBytes bound (always keeping the newest record, so a single
// oversized value cannot empty the store).
func (s *Store) evictLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	budget := s.opts.MaxBytes - fileHeaderLen
	for len(s.order) > 1 && s.liveBytes > budget {
		key := s.order[0]
		ref := s.index[key]
		s.order = s.order[1:]
		delete(s.index, key)
		s.liveBytes -= ref.size
		s.stats.Evicted++
	}
}

// syncDir fsyncs the store directory, making a completed rename durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		closeQuiet(d)
		return err
	}
	return d.Close()
}
