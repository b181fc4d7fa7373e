package xbc_test

import (
	"reflect"
	"testing"

	"xbc"
	"xbc/internal/snapshot"
)

// The session restore property: running a frontend to completion in one
// go and running it with snapshot round-trips in the middle must produce
// bit-identical metrics. This is what makes warm-state snapshots safe to
// substitute for re-simulated warmup: a restored session IS the session
// that was saved, down to the last LRU stamp and history bit.
func TestSessionRestoreContinueBitIdentical(t *testing.T) {
	w, ok := xbc.WorkloadByName("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	s, err := xbc.Generate(w, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	for fn, mk := range goldenModels() {
		fn, mk := fn, mk
		t.Run(fn, func(t *testing.T) {
			fe := mk()
			ref := xbc.Run(fe, s)

			// Two snapshot hops: save at ~1/3 and ~2/3, each time sealing
			// the payload into a blob and reopening it (the exact bytes a
			// snapshot store round-trip sees), restoring into a fresh
			// session from the same frontend.
			ses := fe.NewSession()
			for _, cut := range []int{len(recs) / 3, 2 * len(recs) / 3} {
				ses.StepTo(recs, cut)
				var sw snapshot.Writer
				ses.SaveState(&sw)
				payload, err := snapshot.Open(snapshot.Seal(sw.Bytes()))
				if err != nil {
					t.Fatalf("reopen sealed snapshot: %v", err)
				}
				restored := fe.NewSession()
				if err := restored.LoadState(snapshot.NewReader(payload)); err != nil {
					t.Fatalf("restore at %d: %v", cut, err)
				}
				if restored.Pos() != ses.Pos() {
					t.Fatalf("restore at %d: pos %d, saved %d", cut, restored.Pos(), ses.Pos())
				}
				ses = restored
			}
			ses.StepTo(recs, len(recs))
			got, err := ses.Finish()
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(metricsToGolden(ref), metricsToGolden(got)) {
				t.Errorf("split run diverged from uninterrupted run\nref: %+v\ngot: %+v",
					metricsToGolden(ref), metricsToGolden(got))
			}
		})
	}
}

// A truncated or bit-flipped snapshot payload must fail cleanly in
// LoadState — never panic, never silently succeed with torn state. The
// fuzz targets in internal/snapshot cover the envelope; this covers the
// hardest decoder (the XBC core's pool cross-references).
func TestSessionLoadStateCorruptPayload(t *testing.T) {
	w, _ := xbc.WorkloadByName("gcc")
	s, err := xbc.Generate(w, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	for fn, mk := range goldenModels() {
		fn, mk := fn, mk
		t.Run(fn, func(t *testing.T) {
			fe := mk()
			ses := fe.NewSession()
			ses.StepTo(recs, len(recs)/2)
			var sw snapshot.Writer
			ses.SaveState(&sw)
			payload := sw.Bytes()

			// Truncations at a spread of offsets.
			for cut := 0; cut < len(payload); cut += 1 + len(payload)/97 {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("truncation at %d panicked: %v", cut, r)
						}
					}()
					_ = fe.NewSession().LoadState(snapshot.NewReader(payload[:cut]))
				}()
			}
			// Single-byte corruptions at a spread of offsets.
			for off := 0; off < len(payload); off += 1 + len(payload)/211 {
				mut := append([]byte(nil), payload...)
				mut[off] ^= 0x41
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("bit flip at %d panicked: %v", off, r)
						}
					}()
					_ = fe.NewSession().LoadState(snapshot.NewReader(mut))
				}()
			}
		})
	}
}
