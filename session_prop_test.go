package xbc_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"xbc"
	"xbc/internal/frontend"
	"xbc/internal/snapshot"
)

// The session restore property: running a frontend to completion in one
// go and running it with snapshot round-trips in the middle must produce
// bit-identical metrics. This is what makes warm-state snapshots safe to
// substitute for re-simulated warmup: a restored session IS the session
// that was saved, down to the last LRU stamp and history bit.
func TestSessionRestoreContinueBitIdentical(t *testing.T) {
	s := restoreStream(t)
	for fn, mk := range goldenModels() {
		t.Run(fn, func(t *testing.T) {
			restoreContinue(t, mk(), s)
		})
	}
}

// TestSessionRestoreContinueSmallBudget is the same property at a 2048-uop
// budget, which makes every structure evict before and after each cut.
func TestSessionRestoreContinueSmallBudget(t *testing.T) {
	s := restoreStream(t)
	for fn, mk := range modelsAt(2048) {
		t.Run(fn, func(t *testing.T) {
			restoreContinue(t, mk(), s)
		})
	}
}

func restoreStream(t *testing.T) *xbc.Stream {
	t.Helper()
	w, ok := xbc.WorkloadByName("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	s, err := xbc.Generate(w, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func restoreContinue(t *testing.T, fe xbc.Frontend, s *xbc.Stream) {
	recs := s.Records()
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
		payload, err := snapshot.Open(sw.Seal())
		if err != nil {
			t.Fatalf("reopen sealed snapshot: %v", err)
		}
		restored := fe.NewSession()
		r := snapshot.NewReader(payload)
		if err := restored.LoadState(r); err != nil {
			t.Fatalf("restore at %d: %v", cut, err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("restore at %d left %d of %d payload bytes unread", cut, r.Remaining(), len(payload))
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
}

// The snapshot encoding loses nothing and keeps nothing stale: a payload
// restored into a session and saved again is byte-identical to itself,
// both when the restoring session is fresh and when it has run over the
// whole stream first, so every table entry the payload marks invalid had
// to be reset by the restore. Sparse tables only write their valid
// entries, so a field dropped on save or an entry left behind on load
// shows here as differing bytes.
func TestSessionSaveLoadSaveIdentical(t *testing.T) {
	s := restoreStream(t)
	recs := s.Records()
	for _, budget := range []int{32 * 1024, 2048} {
		for fn, mk := range modelsAt(budget) {
			t.Run(fmt.Sprintf("%s/%d", fn, budget), func(t *testing.T) {
				fe := mk()
				for _, cut := range []int{len(recs) / 3, 2 * len(recs) / 3} {
					ses := fe.NewSession()
					ses.StepTo(recs, cut)
					var sw snapshot.Writer
					ses.SaveState(&sw)
					saved := sw.Bytes()

					fresh, dirty := fe.NewSession(), fe.NewSession()
					dirty.StepTo(recs, len(recs))
					for name, into := range map[string]frontend.Session{"fresh": fresh, "dirty": dirty} {
						if err := into.LoadState(snapshot.NewReader(saved)); err != nil {
							t.Fatalf("cut %d, %s: restore: %v", cut, name, err)
						}
						var again snapshot.Writer
						into.SaveState(&again)
						if !bytes.Equal(again.Bytes(), saved) {
							t.Fatalf("cut %d, %s: re-saved payload differs (%d bytes, first %d)",
								cut, name, len(again.Bytes()), len(saved))
						}
					}
				}
			})
		}
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

// FuzzSessionLoadState feeds LoadState truncated and mutated payloads,
// seeded with a real mid-run snapshot of every goldenModels entry: a
// restore may fail, but it must never panic. The first argument picks the
// model.
func FuzzSessionLoadState(f *testing.F) {
	w, _ := xbc.WorkloadByName("gcc")
	s, err := xbc.Generate(w, 20_000)
	if err != nil {
		f.Fatal(err)
	}
	recs := s.Records()
	models := goldenModels()
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		ses := models[n]().NewSession()
		ses.StepTo(recs, len(recs)/2)
		var sw snapshot.Writer
		ses.SaveState(&sw)
		f.Add(uint8(i), sw.Bytes())
	}
	f.Fuzz(func(t *testing.T, model uint8, payload []byte) {
		fe := models[names[int(model)%len(names)]]()
		_ = fe.NewSession().LoadState(snapshot.NewReader(payload))
	})
}
