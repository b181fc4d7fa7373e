package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// openT opens a store with test-friendly defaults, failing the test on
// error.
func openT(t *testing.T, dir string, mut ...func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, Fsync: FsyncAlways}
	for _, m := range mut {
		m(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, key string, val []byte) {
	t.Helper()
	if err := s.Put(key, val); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func mustGet(t *testing.T, s *Store, key string, want []byte) {
	t.Helper()
	got, ok := s.Get(key)
	if !ok {
		t.Fatalf("Get(%s): missing", key)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get(%s) = %d bytes, want %d (content differs)", key, len(got), len(want))
	}
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	vals := map[string][]byte{}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%02d", i)
		val := bytes.Repeat([]byte{byte(i)}, 100+i*13)
		vals[key] = val
		mustPut(t, s, key, val)
	}
	// Overwrites supersede.
	mustPut(t, s, "key-03", []byte("replaced"))
	vals["key-03"] = []byte("replaced")
	for k, v := range vals {
		mustGet(t, s, k, v)
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A clean reopen serves everything from the segment.
	s2 := openT(t, dir)
	defer s2.Close()
	for k, v := range vals {
		mustGet(t, s2, k, v)
	}
	st := s2.Stats()
	if st.Quarantined != 0 || st.TornTruncations != 0 {
		t.Errorf("clean reopen quarantined=%d torn=%d, want 0/0", st.Quarantined, st.TornTruncations)
	}
}

func TestGetMissAndHas(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get on empty store hit")
	}
	mustPut(t, s, "a", []byte("1"))
	if !s.Has("a") || s.Has("b") {
		t.Fatalf("Has: a=%v b=%v, want true/false", s.Has("a"), s.Has("b"))
	}
	st := s.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats hits=%d misses=%d puts=%d, want 0/1/1", st.Hits, st.Misses, st.Puts)
	}
}

func TestEmptyKeyAndBounds(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("Put with empty key succeeded")
	}
	if err := s.Put(string(bytes.Repeat([]byte("k"), maxKeyLen+1)), nil); err == nil {
		t.Fatal("Put with oversized key succeeded")
	}
}

func TestParseFsyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncMode
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"", FsyncAlways, true},
		{"sometimes", "", false},
	} {
		got, err := ParseFsyncMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseFsyncMode(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestFsyncNeverAndIntervalStillRecoverOnCleanClose(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncNever, FsyncInterval} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, func(o *Options) { o.Fsync = mode })
			mustPut(t, s, "k", []byte("v"))
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2 := openT(t, dir)
			defer s2.Close()
			mustGet(t, s2, "k", []byte("v"))
		})
	}
}

func TestCompactionDropsDeadVersions(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 200; i++ {
		mustPut(t, s, "same-key", val) // 199 dead versions
	}
	mustPut(t, s, "other", []byte("y"))
	before := s.Stats().SegmentBytes
	if err := s.compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	st := s.Stats()
	if st.SegmentBytes >= before {
		t.Fatalf("compaction did not shrink the segment: %d -> %d", before, st.SegmentBytes)
	}
	if st.Compactions == 0 {
		t.Fatal("Compactions counter not bumped")
	}
	mustGet(t, s, "same-key", val)
	mustGet(t, s, "other", []byte("y"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen after compaction: the swapped segment serves everything.
	s2 := openT(t, dir)
	defer s2.Close()
	mustGet(t, s2, "same-key", val)
	mustGet(t, s2, "other", []byte("y"))
}

func TestMaxBytesEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("v"), 4096)
	s := openT(t, dir, func(o *Options) { o.MaxBytes = 20 * 1024 })
	for i := 0; i < 50; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), val)
	}
	st := s.Stats()
	if st.SegmentBytes > 24*1024 {
		t.Fatalf("segment %d bytes ignores the 20 KiB bound", st.SegmentBytes)
	}
	if st.Evicted == 0 {
		t.Fatal("no evictions recorded under size pressure")
	}
	// The newest records must survive; the oldest must be gone.
	mustGet(t, s, "k49", val)
	if _, ok := s.Get("k00"); ok {
		t.Fatal("oldest record survived eviction")
	}
	defer s.Close()
}

func TestAutoCompactionOnGarbage(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	// >1 MiB of dead versions of one key must auto-trigger a compaction.
	val := bytes.Repeat([]byte("g"), 32*1024)
	for i := 0; i < 200; i++ {
		mustPut(t, s, "hot", val)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no auto-compaction after %d dead bytes", st.SegmentBytes-st.LiveBytes)
	}
	mustGet(t, s, "hot", val)
}

func TestKeysSortedAndExportDeterministic(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	mustPut(t, s, "b", []byte("2"))
	mustPut(t, s, "a", []byte("1"))
	mustPut(t, s, "c", []byte("3"))
	keys := s.Keys()
	want := []string{"a", "b", "c"}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

func TestReadTimeBitRotQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	mustPut(t, s, "fragile", bytes.Repeat([]byte("d"), 256))
	mustPut(t, s, "sound", []byte("ok"))
	// Flip a byte inside the live record's value region, under the open
	// store's feet (simulating media bit rot).
	ref := s.index["fragile"]
	path := filepath.Join(dir, segmentName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, ref.off+recHeaderLen+2+int64(len("fragile"))+10); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("fragile"); ok {
		t.Fatal("bit-rotted record served")
	}
	if _, ok := s.Get("fragile"); ok {
		t.Fatal("quarantined record resurrected")
	}
	st := s.Stats()
	if st.Quarantined == 0 {
		t.Fatal("read-time corruption not counted as quarantined")
	}
	mustGet(t, s, "sound", []byte("ok"))
}

func TestDegradedModeLatchesAndServesReads(t *testing.T) {
	for _, point := range []string{"segment.write", "segment.sync"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			fail := &faultArm{}
			s := openT(t, dir, func(o *Options) { o.hook = fail.hook })
			mustPut(t, s, "before", []byte("fine"))
			// Inject an ENOSPC-style failure on the next append or its
			// fsync. A failed append persists no byte; a failed fsync
			// leaves the record in the page cache, unacked.
			fail.arm(point, hookAction{Tear: 0, Err: errDiskFull})
			if err := s.Put("during", []byte("x")); err == nil {
				t.Fatal("Put during disk-full succeeded")
			}
			if err := s.Put("after", []byte("y")); err == nil {
				t.Fatal("Put after degradation succeeded")
			} else if got := s.Degraded(); got == nil {
				t.Fatal("Degraded() nil after write error")
			}
			st := s.Stats()
			if !st.Degraded || st.WriteErrors == 0 || st.DegradedCause == "" {
				t.Fatalf("stats after failure: %+v", st)
			}
			// Reads keep working in degraded mode.
			mustGet(t, s, "before", []byte("fine"))
			if _, ok := s.Get("during"); ok {
				t.Fatal("failed Put served before reopen")
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close (degraded): %v", err)
			}
			// Reopen recovers: the acked write survives, the failed append
			// is absent, and a record whose fsync failed is served intact
			// or not at all.
			s2 := openT(t, dir)
			defer s2.Close()
			mustGet(t, s2, "before", []byte("fine"))
			got, ok := s2.Get("during")
			if ok && (point == "segment.write" || !bytes.Equal(got, []byte("x"))) {
				t.Fatalf("failed Put visible after reopen: %q", got)
			}
		})
	}
}

// TestFsyncDiscipline counts segment fsyncs: the ack point of every Put
// under FsyncAlways, none per Put under the other disciplines (the
// interval ticker is set to an hour so it stays silent), and one each
// for an explicit Sync and for Close. The kill -9 harness keeps the page
// cache, so only this count catches a lost fsync.
func TestFsyncDiscipline(t *testing.T) {
	for _, tc := range []struct {
		mode   FsyncMode
		perPut int
	}{
		{FsyncAlways, 1},
		{FsyncInterval, 0},
		{FsyncNever, 0},
	} {
		t.Run(string(tc.mode), func(t *testing.T) {
			var syncs int // hook calls are serialised by the store lock
			s := openT(t, t.TempDir(), func(o *Options) {
				o.Fsync = tc.mode
				o.FsyncInterval = time.Hour
				o.hook = func(point string, _ []byte) hookAction {
					if point == "segment.sync" {
						syncs++
					}
					return proceed()
				}
			})
			const puts = 5
			for i := 0; i < puts; i++ {
				mustPut(t, s, fmt.Sprintf("k%d", i), []byte("v"))
			}
			if want := puts * tc.perPut; syncs != want {
				t.Fatalf("%d Puts fsynced the segment %d times, want %d", puts, syncs, want)
			}
			before := syncs
			if err := s.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if syncs != before+1 {
				t.Fatalf("Sync fsynced the segment %d times, want 1", syncs-before)
			}
			before = syncs
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if syncs != before+1 {
				t.Fatalf("Close fsynced the segment %d times, want 1", syncs-before)
			}
		})
	}
}

func TestWholeFileQuarantineOnForeignHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName), []byte("GARBAGE!not a store segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	defer s.Close()
	if st := s.Stats(); st.QuarantinedFiles != 1 {
		t.Fatalf("QuarantinedFiles = %d, want 1", st.QuarantinedFiles)
	}
	mustPut(t, s, "fresh", []byte("start"))
	mustGet(t, s, "fresh", []byte("start"))
	// The original bytes are preserved for postmortem.
	if _, err := os.Stat(filepath.Join(dir, segmentName+".quarantined.0")); err != nil {
		t.Fatalf("quarantined original missing: %v", err)
	}
}

func TestStaleCompactionTempDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	mustPut(t, s, "k", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-compaction leaves segment.xbs.tmp behind; open must
	// discard it and serve from the real segment.
	if err := os.WriteFile(filepath.Join(dir, segmentTmp), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	mustGet(t, s2, "k", []byte("v"))
	if _, err := os.Stat(filepath.Join(dir, segmentTmp)); !os.IsNotExist(err) {
		t.Fatal("stale compaction temp not removed")
	}
}

func TestClosedStoreRefusesEverything(t *testing.T) {
	s := openT(t, t.TempDir())
	mustPut(t, s, "k", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", nil); err != ErrClosed {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get after Close served")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// Concurrent Closes must not race on the stopSync channel: before the
// closing latch, two callers could both observe closed == false and
// double-close it, which panics.
func TestConcurrentClose(t *testing.T) {
	s := openT(t, t.TempDir(), func(o *Options) {
		o.Fsync = FsyncInterval
		o.FsyncInterval = time.Hour // syncer running but idle
	})
	mustPut(t, s, "k", []byte("v"))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := s.Put("k2", nil); err != ErrClosed {
		t.Fatalf("Put after concurrent Close: %v, want ErrClosed", err)
	}
}

// TestSecondOpenIsLocked: two Stores on one directory would each append
// at their own offset and overwrite each other's acked records, so the
// second Open must fail with ErrLocked (without touching the files), and
// the directory must open again once the first Store closes.
func TestSecondOpenIsLocked(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	for i := 0; i < 10; i++ {
		mustPut(t, a, fmt.Sprintf("a-%d", i), []byte("first"))
	}
	if b, err := Open(Options{Dir: dir}); !errors.Is(err, ErrLocked) {
		if b != nil {
			b.Close()
		}
		t.Fatalf("second Open of a held directory: err = %v, want ErrLocked", err)
	}
	for i := 0; i < 10; i++ {
		mustPut(t, a, fmt.Sprintf("b-%d", i), []byte("second"))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	c := openT(t, dir)
	defer c.Close()
	if n := c.Len(); n != 20 {
		t.Fatalf("reopen found %d keys, want all 20 acked", n)
	}
}
