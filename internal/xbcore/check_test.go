package xbcore

import (
	"strings"
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/isa"
)

// checkedConfig returns the paper configuration with the invariant checker
// on.
func checkedConfig(uopBudget int) Config {
	cfg := DefaultConfig(uopBudget)
	cfg.Check = true
	return cfg
}

func TestCheckedRunCleanStream(t *testing.T) {
	// A well-formed stream must pass every invariant, and the checker must
	// be purely observational: metrics identical to an unchecked run.
	s := xbcTestStream(t, 11, 150_000)
	plain := frontend.Run(New(DefaultConfig(16*1024), frontend.DefaultConfig()), s)
	ses := New(checkedConfig(16*1024), frontend.DefaultConfig()).NewSession()
	ses.StepTo(s.Records(), s.Len())
	checked, err := ses.Finish()
	if err != nil {
		t.Fatalf("checked run failed on a clean stream: %v", err)
	}
	if plain.DeliveredUops != checked.DeliveredUops || plain.BuildUops != checked.BuildUops ||
		plain.CondMiss != checked.CondMiss || plain.PenaltyCycles != checked.PenaltyCycles {
		t.Fatalf("checker perturbed the run:\nplain   %+v\nchecked %+v", plain, checked)
	}
}

func TestCheckedRunThroughRunSafe(t *testing.T) {
	// frontend.RunSafe returns the checked session's verdict, which on a
	// clean stream is no error.
	s := xbcTestStream(t, 12, 60_000)
	if _, err := frontend.RunSafe(New(checkedConfig(16*1024), frontend.DefaultConfig()), s); err != nil {
		t.Fatalf("RunSafe on clean stream: %v", err)
	}
}

func TestCheckerErrorThroughSession(t *testing.T) {
	// A violation the checker finds must come out of Finish as an error,
	// with the metrics up to it.
	s := xbcTestStream(t, 13, 60_000)
	recs := s.Records()
	ses := New(checkedConfig(16*1024), frontend.DefaultConfig()).NewSession()
	ses.StepTo(recs, len(recs)/2)
	st := ses.(*session).st
	const dangling = isa.Addr(0xdead)
	if st.cache.entryOf(dangling) >= 0 {
		t.Fatalf("%#x unexpectedly resident; pick another address", dangling)
	}
	e := st.xbtb.Ensure(0x200, isa.CondBranch)
	e.Taken = Ptr{EndIP: dangling, Variant: 0, Offset: 4, Valid: true}
	m, err := ses.Finish()
	if err == nil || !strings.Contains(err.Error(), "no cache entry") {
		t.Fatalf("Finish dropped the dangling pointer: err=%v", err)
	}
	if m.Uops == 0 {
		t.Fatal("Finish returned no metrics for the run up to the violation")
	}
}

func TestCheckerRejectsBadXB(t *testing.T) {
	cfg := checkedConfig(16 * 1024)
	cache, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := newChecker(cfg, cache, NewXBTB(cfg))

	over := dynXB{endIP: 0x100, uops: cfg.Quota + 1}
	if err := k.checkXB(&over); err == nil || !strings.Contains(err.Error(), "quota") {
		t.Errorf("over-quota XB not rejected: %v", err)
	}
	empty := dynXB{endIP: 0x100, uops: 0}
	if err := k.checkXB(&empty); err == nil {
		t.Error("zero-uop XB not rejected")
	}
	short := dynXB{endIP: 0x100, uops: 4, rseq: []isa.UopID{isa.Uop(0x100, 0)}}
	if err := k.checkXB(&short); err == nil || !strings.Contains(err.Error(), "rseq") {
		t.Errorf("uops/rseq mismatch not rejected: %v", err)
	}
}

func TestCheckerRejectsDanglingPointer(t *testing.T) {
	cfg := checkedConfig(16 * 1024)
	cache, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	xbtb := NewXBTB(cfg)
	k := newChecker(cfg, cache, xbtb)

	// A valid pointer into an address with no cache entry must trip the
	// sweep.
	e := xbtb.Ensure(0x200, isa.CondBranch)
	e.Taken = Ptr{EndIP: 0xdead, Variant: 0, Offset: 4, Valid: true}
	if err := k.sweep(); err == nil || !strings.Contains(err.Error(), "no cache entry") {
		t.Fatalf("dangling pointer not caught: %v", err)
	}

	// Resolvable target, but the offset reaches past the stored length.
	rseq := []isa.UopID{isa.Uop(0xdead, 1), isa.Uop(0xdead, 0)}
	id, _, _ := cache.Insert(0xdead, rseq, 0)
	e.Taken = Ptr{EndIP: 0xdead, Variant: id, Offset: int32(len(rseq)) + 1, Valid: true}
	if err := k.sweep(); err == nil || !strings.Contains(err.Error(), "reaches") {
		t.Fatalf("over-reaching offset not caught: %v", err)
	}

	// Dead variant id.
	e.Taken = Ptr{EndIP: 0xdead, Variant: id + 99, Offset: 1, Valid: true}
	if err := k.sweep(); err == nil || !strings.Contains(err.Error(), "variant") {
		t.Fatalf("dead variant not caught: %v", err)
	}

	// A well-formed pointer passes.
	e.Taken = Ptr{EndIP: 0xdead, Variant: id, Offset: int32(len(rseq)), Valid: true}
	if err := k.sweep(); err != nil {
		t.Fatalf("valid pointer rejected: %v", err)
	}
}

func TestCheckerRejectsBadOffsetRange(t *testing.T) {
	cfg := checkedConfig(16 * 1024)
	cache, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := newChecker(cfg, cache, NewXBTB(cfg))
	// Taken/Fall offsets must be >= 1; PromotedTo may be 0.
	zero := Ptr{EndIP: 0x300, Variant: 0, Offset: 0, Valid: true}
	if err := k.checkPtr(0x400, "taken", zero, 1); err == nil {
		t.Error("zero taken offset not rejected")
	}
	if err := k.checkPtr(0x400, "promoted-to", Ptr{EndIP: 0x300, Offset: -1, Valid: true}, 0); err == nil {
		t.Error("negative promoted-to offset not rejected")
	}
}

func TestHeadExtensionPreservationCheck(t *testing.T) {
	// A legitimate case-2 insert must pass the reverse-prefix check.
	cfg := checkedConfig(16 * 1024)
	cache, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	short := []isa.UopID{isa.Uop(0x500, 1), isa.Uop(0x500, 0)}
	long := append(append([]isa.UopID(nil), short...), isa.Uop(0x4f0, 1), isa.Uop(0x4f0, 0))
	cache.Insert(0x500, short, 0)
	_, kind, _ := cache.Insert(0x500, long, 0)
	if kind != InsertExtended {
		t.Fatalf("insert kind %v, want extension", kind)
	}
	if err := cache.CheckErr(); err != nil {
		t.Fatalf("legal head extension flagged: %v", err)
	}
}
