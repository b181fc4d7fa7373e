// Package store is the crash-safe persistent key-value store behind the
// xbcd result cache, the trace-corpus cache and the snapshot manager: one
// append-only segment file of length-prefixed, CRC32C-checksummed records
// plus an in-memory index. The segment is the only log.
//
// Durability model:
//
//   - Every Put appends the record to the segment. Under FsyncAlways it
//     then fsyncs the segment, and that fsync is the ack point: a Put that
//     returns nil survives kill -9 and power loss at any later instant.
//     FsyncInterval fsyncs from a background ticker; FsyncNever leaves it
//     to the OS. Sync and Close fsync under every discipline.
//   - Open is one scan: it truncates a torn tail at the last valid record
//     and quarantines (skips, counts, never crashes on) corrupt records
//     and files with a foreign header.
//   - Compaction rewrites live records into a temporary segment and
//     atomically swaps it in via rename; a crash at any point leaves
//     either the old segment (tmp is discarded on open) or the new one.
//   - One Store owns a directory: Open takes an exclusive advisory lock
//     and fails with ErrLocked while another Store, in this process or
//     another, holds it.
//
// Everything xbcd persists is regenerable from its spec, so a record lost
// to a crash outside the ack discipline is recomputed, never served wrong.
//
// A write error (disk full, I/O fault) latches the store into a degraded
// state: Get keeps serving, Put fails fast, and Stats reports the cause,
// so a serving layer can fall back to memory-only mode instead of
// crashing.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// File names inside a store directory.
const (
	segmentName = "segment.xbs"
	segmentTmp  = "segment.xbs.tmp"
	lockName    = "lock"
)

// The segment header: 8 bytes of magic versioning the file format.
const (
	segmentMagic  = "XBCSEG1\n"
	fileHeaderLen = 8
)

// FsyncMode is the segment fsync discipline.
type FsyncMode string

const (
	// FsyncAlways syncs the segment on every Put: an acked write is
	// durable against kill -9 and power loss. The default.
	FsyncAlways FsyncMode = "always"
	// FsyncInterval syncs the segment from a background ticker
	// (Options.FsyncInterval): bounded data loss, much cheaper Puts.
	FsyncInterval FsyncMode = "interval"
	// FsyncNever leaves syncing to the OS (and Close): fastest, loses
	// whatever the kernel had not written back.
	FsyncNever FsyncMode = "never"
)

// ParseFsyncMode validates a -store-fsync flag value.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch FsyncMode(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncMode(s), nil
	case "":
		return FsyncAlways, nil
	default:
		return "", fmt.Errorf("store: unknown fsync mode %q (want always, interval, or never)", s)
	}
}

// ErrDegraded wraps the first write error once the store has latched into
// read-only degraded mode.
var ErrDegraded = errors.New("store: degraded (persisting disabled after a write error)")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrLocked is returned by Open when another Store holds the directory.
var ErrLocked = errors.New("store: directory is locked by another open store")

// Options configures Open.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// Fsync is the segment sync discipline (default FsyncAlways).
	Fsync FsyncMode
	// FsyncInterval is the background sync period under FsyncInterval
	// (default 1s).
	FsyncInterval time.Duration
	// MaxBytes bounds the segment file; exceeding it triggers a
	// compaction that drops the oldest-written records until the live set
	// fits. 0 means unbounded.
	MaxBytes int64

	// hook, when non-nil (tests only), intercepts durability-relevant
	// operations to inject torn writes, I/O errors, and kill -9 crashes.
	hook testHook
}

func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = time.Second
	}
	return o
}

// testHook intercepts one durability-relevant operation. For write points
// data is the record about to be written; for sync/rename/truncate points
// data is nil. The zero action proceeds normally.
type testHook func(point string, data []byte) hookAction

// hookAction is what an intercepted operation should do: optionally tear
// the write to Tear bytes, then crash (panic errCrash, simulating
// kill -9) and/or fail with Err.
type hookAction struct {
	Tear  int // bytes of data actually written; <0 or >=len(data) writes all
	Err   error
	Crash bool
}

// proceed is the default action: full write, no fault.
func proceed() hookAction { return hookAction{Tear: -1} }

// errCrash is the panic value the crash hook raises; the test harness
// recovers it, leaving the files exactly as a kill -9 would.
var errCrash = errors.New("store: injected crash")

// file is the store's view of an on-disk file; *os.File satisfies it and
// tests wrap it for fault injection.
type file interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// recRef locates one live record inside the segment.
type recRef struct {
	off  int64 // absolute offset of the record header
	size int64 // framed size: header + body
	crc  uint32
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Records is the live (indexed) record count; SegmentBytes the
	// on-disk segment size; LiveBytes the bytes the live records occupy.
	Records      int
	SegmentBytes int64
	LiveBytes    int64

	Puts   uint64 // successful Put calls
	Gets   uint64 // Get calls
	Hits   uint64 // Gets served
	Misses uint64 // Gets not found

	// Quarantined counts corrupt records detected and skipped — at open
	// (checksum or structure failures mid-segment) and at read time (bit
	// rot under a live index entry).
	Quarantined uint64
	// TornTruncations counts torn tails truncated at open.
	TornTruncations uint64
	// QuarantinedFiles counts whole files set aside at open because their
	// header was unrecognizable.
	QuarantinedFiles uint64
	// Compactions counts segment rewrites; Evicted the records dropped by
	// the MaxBytes bound during them.
	Compactions uint64
	Evicted     uint64
	// WriteErrors counts failed writes; Degraded reports the store has
	// latched read-only, with the cause in DegradedCause.
	WriteErrors   uint64
	Degraded      bool
	DegradedCause string
}

// Store is a crash-safe persistent key-value store. All methods are safe
// for concurrent use.
type Store struct {
	opts Options
	dir  string
	lock *os.File // the directory lock, held until Close; nil without flock

	mu        sync.Mutex
	seg       file
	segSize   int64
	index     map[string]recRef
	order     []string // insertion/refresh order, oldest first
	liveBytes int64
	failed    error // sticky first write error; non-nil = degraded
	closed    bool
	closing   bool // latched by the first Close before it drops the lock
	stats     Stats

	stopSync chan struct{} // closes the interval-sync goroutine
	syncDone chan struct{}
}

// Open opens (or creates) the store at opts.Dir, scans the segment, and
// returns a store ready to serve. Open never fails on corrupt *records* —
// they are quarantined and counted — only on I/O errors that make the
// directory unusable.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", opts.Dir, err)
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:  opts,
		dir:   opts.Dir,
		lock:  lock,
		index: make(map[string]recRef),
	}
	if err := s.load(); err != nil {
		s.unlock()
		return nil, err
	}
	if opts.Fsync == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// load opens and scans the segment. It runs under the directory lock,
// so a temporary segment left behind can only be a crashed compaction's.
func (s *Store) load() error {
	// A leftover temporary segment means a crash interrupted a compaction
	// before its atomic rename: the real segment is still authoritative.
	if err := os.Remove(filepath.Join(s.dir, segmentTmp)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: clearing stale compaction temp: %w", err)
	}
	if err := s.openSegment(); err != nil {
		return err
	}
	if err := s.loadSegment(); err != nil {
		closeQuiet(s.seg)
		return err
	}
	return nil
}

// unlock releases the directory lock.
func (s *Store) unlock() {
	if s.lock != nil {
		closeQuiet(s.lock)
	}
}

// closeQuiet closes f on an error path where the original error matters
// more than the close result.
func closeQuiet(f file) {
	//xbc:ignore errdrop error-path cleanup; the original open error is what the caller sees
	f.Close()
}

// openSegment opens the segment read-write into s.seg, validating its
// header. An empty (or new) file gets the header written and synced; a
// file whose first bytes are not the segment magic is set aside whole as
// quarantined and replaced with a fresh one — a store must open on any
// input.
func (s *Store) openSegment() error {
	path := filepath.Join(s.dir, segmentName)
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: opening segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			closeQuiet(f)
			return fmt.Errorf("store: stat segment: %w", err)
		}
		size := st.Size()
		if size == 0 {
			if _, err := f.Write([]byte(segmentMagic)); err != nil {
				closeQuiet(f)
				return fmt.Errorf("store: writing segment header: %w", err)
			}
			if err := f.Sync(); err != nil {
				closeQuiet(f)
				return fmt.Errorf("store: syncing segment header: %w", err)
			}
			s.seg, s.segSize = f, fileHeaderLen
			return nil
		}
		head := make([]byte, fileHeaderLen)
		if n, err := f.ReadAt(head, 0); (err == nil || err == io.EOF) && n == fileHeaderLen && string(head) == segmentMagic {
			if _, err := f.Seek(size, io.SeekStart); err != nil {
				closeQuiet(f)
				return fmt.Errorf("store: seeking segment: %w", err)
			}
			s.seg, s.segSize = f, size
			return nil
		}
		// Unrecognizable header: quarantine the whole file and retry with
		// a fresh one. attempt bounds the loop against a directory where
		// renames do not stick.
		closeQuiet(f)
		if attempt > 0 {
			return errors.New("store: segment header unrecognizable even after quarantining")
		}
		if err := s.quarantineFile(path); err != nil {
			return err
		}
		s.stats.QuarantinedFiles++
	}
}

// quarantineFile renames path aside to the first free
// "<name>.quarantined.<n>" slot, preserving the bytes for postmortem.
func (s *Store) quarantineFile(path string) error {
	for n := 0; ; n++ {
		dst := fmt.Sprintf("%s.quarantined.%d", path, n)
		if _, err := os.Stat(dst); err == nil {
			continue
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("store: probing quarantine slot: %w", err)
		}
		if err := os.Rename(path, dst); err != nil {
			return fmt.Errorf("store: quarantining %s: %w", path, err)
		}
		return nil
	}
}

// loadSegment scans the segment into the index, truncating a torn tail.
func (s *Store) loadSegment() error {
	sec := io.NewSectionReader(s.seg, fileHeaderLen, s.segSize-fileHeaderLen)
	end, st, err := scanRecords(sec, fileHeaderLen, func(off, size int64, crc uint32, key string, val []byte) error {
		s.indexPutLocked(key, recRef{off: off, size: size, crc: crc})
		return nil
	})
	if err != nil {
		return err
	}
	s.stats.Quarantined += st.quarantined
	if end < s.segSize {
		if st.torn {
			s.stats.TornTruncations++
		}
		if err := s.seg.Truncate(end); err != nil {
			return fmt.Errorf("store: truncating torn segment tail: %w", err)
		}
		if _, err := s.seg.Seek(end, io.SeekStart); err != nil {
			return fmt.Errorf("store: seeking after truncation: %w", err)
		}
		s.segSize = end
	}
	return nil
}

// indexPutLocked records key at ref, maintaining the insertion order and
// the live-byte account. Caller holds s.mu (or is single-threaded open).
func (s *Store) indexPutLocked(key string, ref recRef) {
	if old, ok := s.index[key]; ok {
		s.liveBytes -= old.size
		for i, k := range s.order {
			if k == key {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.index[key] = ref
	s.order = append(s.order, key)
	s.liveBytes += ref.size
}

// hookAt consults the test hook for a non-write operation.
func (s *Store) hookAt(point string) error {
	if s.opts.hook == nil {
		return nil
	}
	act := s.opts.hook(point, nil)
	if act.Crash {
		s.crash()
	}
	return act.Err
}

// writeStep appends rec to f at the named fault point, accounting the
// bytes that actually reached the file even when the write tears.
func (s *Store) writeStep(f file, size *int64, rec []byte, point string) error {
	act := proceed()
	if s.opts.hook != nil {
		act = s.opts.hook(point, rec)
	}
	data := rec
	torn := false
	if act.Tear >= 0 && act.Tear < len(rec) {
		data, torn = rec[:act.Tear], true
	}
	n, err := f.Write(data)
	*size += int64(n)
	if act.Crash {
		s.crash()
	}
	if err != nil {
		return err
	}
	if act.Err != nil {
		return act.Err
	}
	if torn || n < len(data) {
		return io.ErrShortWrite
	}
	return nil
}

// crash is the injected kill -9: the kernel would drop the directory
// lock with the process, so release it, then unwind.
func (s *Store) crash() {
	s.unlock()
	panic(errCrash)
}

// syncStep fsyncs f at the named fault point.
func (s *Store) syncStep(f file, point string) error {
	if err := s.hookAt(point); err != nil {
		return err
	}
	return f.Sync()
}

// failLocked latches the store degraded with its first write error.
func (s *Store) failLocked(err error) error {
	s.stats.WriteErrors++
	if s.failed == nil {
		s.failed = err
	}
	return fmt.Errorf("%w: %v", ErrDegraded, err)
}

// Put durably records key -> val (per the fsync discipline): a segment
// append, then under FsyncAlways a segment fsync, which is the ack point.
// The first write error latches the store degraded; later Puts fail fast
// with ErrDegraded.
func (s *Store) Put(key string, val []byte) error {
	rec, err := encodeRecord(key, val)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, s.failed)
	}
	off := s.segSize
	if err := s.writeStep(s.seg, &s.segSize, rec, "segment.write"); err != nil {
		return s.failLocked(fmt.Errorf("segment append: %w", err))
	}
	if s.opts.Fsync == FsyncAlways {
		if err := s.syncStep(s.seg, "segment.sync"); err != nil {
			return s.failLocked(fmt.Errorf("segment sync: %w", err))
		}
	}
	s.indexPutLocked(key, recRef{off: off, size: int64(len(rec)), crc: recCRC(rec)})
	s.stats.Puts++
	if s.needsCompactLocked() {
		if err := s.compactLocked(); err != nil {
			return s.failLocked(err)
		}
	}
	return nil
}

// Get returns the stored value for key. Every read re-verifies the
// record's checksum: bit rot under a live index entry is quarantined (the
// entry is dropped, the counter bumped) and reported as a miss rather
// than served corrupt.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	if s.closed {
		s.stats.Misses++
		return nil, false
	}
	val, ok := s.readLocked(key)
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return val, ok
}

// readLocked fetches and verifies key's record; caller holds s.mu.
func (s *Store) readLocked(key string) ([]byte, bool) {
	ref, ok := s.index[key]
	if !ok {
		return nil, false
	}
	buf := make([]byte, ref.size)
	if _, err := s.seg.ReadAt(buf, ref.off); err != nil {
		s.quarantineKeyLocked(key, ref)
		return nil, false
	}
	body := buf[recHeaderLen:]
	if crc32.Checksum(body, castagnoli) != ref.crc {
		s.quarantineKeyLocked(key, ref)
		return nil, false
	}
	gotKey, val, err := decodeBody(body)
	if err != nil || gotKey != key {
		s.quarantineKeyLocked(key, ref)
		return nil, false
	}
	return val, true
}

// quarantineKeyLocked drops a read-time-corrupt record from the index.
func (s *Store) quarantineKeyLocked(key string, ref recRef) {
	s.stats.Quarantined++
	s.liveBytes -= ref.size
	delete(s.index, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Has reports whether key is live without touching hit/miss counters.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Len reports the live record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Keys returns the live keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	sort.Strings(out)
	return out
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Degraded returns the sticky write error, or nil while healthy.
func (s *Store) Degraded() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.index)
	st.SegmentBytes = s.segSize
	st.LiveBytes = s.liveBytes
	st.Degraded = s.failed != nil
	if s.failed != nil {
		st.DegradedCause = s.failed.Error()
	}
	return st
}

// Sync fsyncs the segment regardless of the fsync discipline, making
// everything written so far durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, s.failed)
	}
	if err := s.syncStep(s.seg, "segment.sync"); err != nil {
		return s.failLocked(fmt.Errorf("segment sync: %w", err))
	}
	return nil
}

// syncLoop is the FsyncInterval background syncer.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.failed == nil {
				if err := s.syncStep(s.seg, "segment.sync"); err != nil {
					//xbc:ignore errdrop failLocked both records and returns the error; the background syncer has no caller to hand it to
					s.failLocked(fmt.Errorf("interval segment sync: %w", err))
				}
			}
			s.mu.Unlock()
		}
	}
}

// Close fsyncs the segment (unless degraded) and closes it. The store is
// unusable afterwards. Concurrent and repeated calls are safe: the first
// caller latches closing and does the work; later callers return nil
// immediately (without the latch, two racing Closes would both observe
// closed == false and double-close stopSync, which panics).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed || s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	if s.stopSync != nil {
		close(s.stopSync)
	}
	s.mu.Unlock()
	if s.syncDone != nil {
		//xbc:ignore ctxflow syncLoop closes syncDone unconditionally on return and stopSync was just closed, so this receive is bounded
		<-s.syncDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var firstErr error
	if s.failed == nil {
		firstErr = s.syncStep(s.seg, "segment.sync")
	}
	if err := s.seg.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.unlock()
	return firstErr
}
