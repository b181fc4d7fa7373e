package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The crash-injection suite. The hook machinery lets a test kill the
// store (panic errCrash, files left exactly as the completed syscalls
// left them — the kill -9 model) at any durability-relevant point:
// mid-append, between the append and its fsync, and at every step of a
// compaction. After each crash the directory is reopened and every acked
// write must still be served, bit identical. Real SIGKILL against a live
// daemon is exercised by scripts/e2e.sh; this suite covers the state
// machine deterministically.

var errDiskFull = errors.New("injected: no space left on device")

// faultArm is a one-shot programmable hook: inert until armed, firing
// its action the first time the named point is reached.
type faultArm struct {
	point string
	act   hookAction
	armed bool
}

func (a *faultArm) arm(point string, act hookAction) {
	a.point = point
	a.act = act
	a.armed = true
}

func (a *faultArm) hook(point string, data []byte) hookAction {
	if !a.armed || point != a.point {
		return proceed()
	}
	a.armed = false
	act := a.act
	// tearHalf resolves against the actual record size at fire time.
	if act.Tear == tearHalf {
		act.Tear = len(data) / 2
	}
	return act
}

// tearHalf is a sentinel Tear value resolved to len(data)/2 by the hook.
const tearHalf = -1000

// runToCrash invokes fn expecting the injected kill; it fails the test
// if fn returns without crashing.
func runToCrash(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil && r != errCrash {
			panic(r)
		}
	}()
	fn()
	t.Fatal("operation completed; expected the injected crash to fire")
}

// seedStore opens a store at dir with arm's hook installed (inert until
// armed) and writes n acked records; returns the store and the expected
// contents.
func seedStore(t *testing.T, dir string, arm *faultArm, n int, mut ...func(*Options)) (*Store, map[string][]byte) {
	t.Helper()
	s := openT(t, dir, append([]func(*Options){func(o *Options) { o.hook = arm.hook }}, mut...)...)
	want := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("acked-%03d", i)
		val := bytes.Repeat([]byte{byte(i + 1)}, 64+i*7)
		mustPut(t, s, key, val)
		want[key] = val
	}
	return s, want
}

// verifyRecovered opens dir fresh and asserts every acked write survives
// bit identical; the in-flight key may be present (with the right value)
// or absent, never corrupt. It returns the recovered store's stats.
func verifyRecovered(t *testing.T, dir string, want map[string][]byte, inflightKey string, inflightVal []byte) Stats {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("closing recovered store: %v", err)
		}
	}()
	for k, v := range want {
		got, ok := s.Get(k)
		if !ok {
			t.Fatalf("acked write %q lost in the crash", k)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("acked write %q corrupted: %d bytes, want %d", k, len(got), len(v))
		}
	}
	if inflightKey != "" {
		if got, ok := s.Get(inflightKey); ok && !bytes.Equal(got, inflightVal) {
			t.Fatalf("in-flight write %q recovered corrupt", inflightKey)
		}
	}
	return s.Stats()
}

// TestCrashDuringPut kills the store at every fault point a Put crosses,
// with nothing/half/all of the record written, and requires recovery of
// all acked writes.
func TestCrashDuringPut(t *testing.T) {
	cases := []struct {
		name  string
		point string
		tear  int
	}{
		{"segment-write-nothing", "segment.write", 0},
		{"segment-write-torn", "segment.write", tearHalf},
		{"segment-write-complete", "segment.write", -1},
		{"before-segment-sync", "segment.sync", -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			arm := &faultArm{}
			s, want := seedStore(t, dir, arm, 8)
			inVal := bytes.Repeat([]byte("IN"), 40)
			arm.arm(tc.point, hookAction{Tear: tc.tear, Crash: true})
			runToCrash(t, func() {
				//xbc:ignore errdrop the injected crash panics out of Put; there is no result to check
				s.Put("inflight", inVal)
			})
			st := verifyRecovered(t, dir, want, "inflight", inVal)
			if st.Quarantined > 0 {
				t.Errorf("crash recovery quarantined %d records; a pure crash should only truncate", st.Quarantined)
			}
		})
	}
}

// TestCrashDuringCompaction kills the store at every step of a
// compaction: writing the temp segment, syncing it, and just before the
// atomic rename. Recovery must serve every live record from whichever
// segment won the swap.
func TestCrashDuringCompaction(t *testing.T) {
	for _, point := range []string{"compact.header.write", "compact.write", "compact.sync", "compact.rename"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			arm := &faultArm{}
			s, want := seedStore(t, dir, arm, 8)
			arm.arm(point, hookAction{Tear: -1, Crash: true})
			runToCrash(t, func() {
				//xbc:ignore errdrop the injected crash panics out of compact
				s.compact()
			})
			st := verifyRecovered(t, dir, want, "", nil)
			if st.Records != len(want) {
				t.Fatalf("recovered %d records, want %d", st.Records, len(want))
			}
		})
	}
}

// TestKillReopenLoop is the kill-and-reopen soak: a deterministic random
// schedule of puts and overwrites, killed at a random armed point every
// round, reopened, and fully verified — acked state must march forward
// bit-identically through dozens of crash/recover cycles.
func TestKillReopenLoop(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	want := map[string][]byte{}
	points := []string{"segment.write", "segment.sync"}
	const rounds = 40
	for round := 0; round < rounds; round++ {
		arm := &faultArm{}
		s := openT(t, dir, func(o *Options) { o.hook = arm.hook })
		// Verify everything acked so far before doing anything else.
		for k, v := range want {
			got, ok := s.Get(k)
			if !ok {
				t.Fatalf("round %d: acked %q lost", round, k)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("round %d: acked %q corrupt", round, k)
			}
		}
		// Ack a few writes (recorded in want), then die mid-write.
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key-%02d", rng.Intn(30))
			val := make([]byte, 16+rng.Intn(400))
			for j := range val {
				val[j] = byte(rng.Intn(256))
			}
			mustPut(t, s, key, val)
			want[key] = val
		}
		point := points[rng.Intn(len(points))]
		tear := []int{0, tearHalf, -1}[rng.Intn(3)]
		arm.arm(point, hookAction{Tear: tear, Crash: true})
		func() {
			defer func() {
				r := recover()
				if r != nil && r != errCrash {
					panic(r)
				}
				// A completed Put is an acked write.
				if r == nil {
					want["victim"] = []byte("survived")
				}
			}()
			if err := s.Put("victim", []byte("survived")); err != nil {
				t.Fatalf("round %d: Put: %v", round, err)
			}
		}()
		// The store object is abandoned exactly as the kill left it.
	}
	// Final full verification on a clean open.
	s := openT(t, dir)
	defer s.Close()
	for k, v := range want {
		got, ok := s.Get(k)
		if !ok {
			t.Fatalf("final: acked %q lost", k)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("final: acked %q corrupt", k)
		}
	}
}

// TestBitFlipEveryByte flips each byte of a small segment in turn and
// reopens: open must never fail, surviving records must be bit-correct,
// every loss must be accounted (quarantine, torn truncation, or file
// quarantine), and recovery must be idempotent across a second open.
func TestBitFlipEveryByte(t *testing.T) {
	base := t.TempDir()
	s := openT(t, base)
	want := map[string][]byte{}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("rec-%d", i)
		val := bytes.Repeat([]byte{byte('A' + i)}, 48)
		mustPut(t, s, key, val)
		want[key] = val
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(filepath.Join(base, segmentName))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(pristine); off++ {
		dir := t.TempDir()
		mutated := append([]byte(nil), pristine...)
		mutated[off] ^= 0x5A
		if err := os.WriteFile(filepath.Join(dir, segmentName), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("offset %d: open failed: %v", off, err)
		}
		lost := 0
		surviving := map[string][]byte{}
		for k, v := range want {
			got, ok := s2.Get(k)
			if !ok {
				lost++
				continue
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("offset %d: record %q served corrupt after bit flip", off, k)
			}
			surviving[k] = v
		}
		st := s2.Stats()
		if lost > 0 && st.Quarantined == 0 && st.TornTruncations == 0 && st.QuarantinedFiles == 0 {
			t.Fatalf("offset %d: lost %d records with no quarantine/truncation accounted", off, lost)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
		// Recovery must be idempotent: a second open of the recovered
		// directory serves the same set cleanly.
		s3, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("offset %d: second open: %v", off, err)
		}
		for k, v := range surviving {
			got, ok := s3.Get(k)
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("offset %d: record %q lost by the recovery itself", off, k)
			}
		}
		if err := s3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiskFullMidCompaction: an I/O error while writing the temp segment
// aborts the compaction, removes the temp, latches degraded — and loses
// nothing.
func TestDiskFullMidCompaction(t *testing.T) {
	dir := t.TempDir()
	arm := &faultArm{}
	s, want := seedStore(t, dir, arm, 8)
	arm.arm("compact.write", hookAction{Tear: 0, Err: errDiskFull})
	if err := s.compact(); err == nil {
		t.Fatal("compact with injected disk-full succeeded")
	}
	if s.Degraded() == nil {
		t.Fatal("store not degraded after compaction failure")
	}
	// Reads still work on the old segment.
	for k, v := range want {
		mustGet(t, s, k, v)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentTmp)); !os.IsNotExist(err) {
		t.Fatal("aborted compaction left its temp file")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	verifyRecovered(t, dir, want, "", nil)
}

// TestAckedNeverLostProperty is the property test for the durability
// contract: under fsync=always, a write whose Put returned nil is never
// lost by a kill at any later instant, across random schedules of puts,
// overwrites, compactions, and kills (abandon-without-Close).
func TestAckedNeverLostProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		dir := t.TempDir()
		acked := map[string][]byte{}
		for session := 0; session < 6; session++ {
			s := openT(t, dir)
			for k, v := range acked {
				got, ok := s.Get(k)
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("trial %d session %d: acked %q lost or corrupt", trial, session, k)
				}
			}
			ops := rng.Intn(20)
			for i := 0; i < ops; i++ {
				switch rng.Intn(10) {
				case 0:
					if err := s.compact(); err != nil {
						t.Fatalf("compact: %v", err)
					}
				default:
					key := fmt.Sprintf("p%d", rng.Intn(12))
					val := make([]byte, rng.Intn(600))
					for j := range val {
						val[j] = byte(rng.Intn(256))
					}
					mustPut(t, s, key, val)
					acked[key] = val
				}
			}
			// Kill: abandon the store without Close. The kernel drops
			// the directory lock with the process.
			s.unlock()
		}
		s := openT(t, dir)
		for k, v := range acked {
			got, ok := s.Get(k)
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("trial %d final: acked %q lost or corrupt", trial, k)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
