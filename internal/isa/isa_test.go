package isa

import (
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Seq: "seq", CondBranch: "jcc", Jump: "jmp", Call: "call",
		IndirectJump: "ijmp", IndirectCall: "icall", Return: "ret",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
	if got := Class(250).String(); got != "class(250)" {
		t.Errorf("invalid class string = %q", got)
	}
}

func TestClassPredicates(t *testing.T) {
	tests := []struct {
		c                                         Class
		ctrl, indirect, endsXB, endsBB, endsTrace bool
	}{
		{Seq, false, false, false, false, false},
		{CondBranch, true, false, true, true, false},
		{Jump, true, false, false, true, false},
		{Call, true, false, true, true, false},
		{IndirectJump, true, true, true, true, true},
		{IndirectCall, true, true, true, true, true},
		{Return, true, true, true, true, true},
	}
	for _, tt := range tests {
		if got := tt.c.IsControlFlow(); got != tt.ctrl {
			t.Errorf("%v.IsControlFlow() = %v", tt.c, got)
		}
		if got := tt.c.IsIndirect(); got != tt.indirect {
			t.Errorf("%v.IsIndirect() = %v", tt.c, got)
		}
		if got := tt.c.EndsXB(); got != tt.endsXB {
			t.Errorf("%v.EndsXB() = %v", tt.c, got)
		}
		if got := tt.c.EndsBasicBlock(); got != tt.endsBB {
			t.Errorf("%v.EndsBasicBlock() = %v", tt.c, got)
		}
		if got := tt.c.EndsTrace(); got != tt.endsTrace {
			t.Errorf("%v.EndsTrace() = %v", tt.c, got)
		}
	}
}

func TestJumpDoesNotEndXB(t *testing.T) {
	// The paper's key definitional point (section 3.1): unconditional
	// direct jumps do not end an extended block, though they end a basic
	// block.
	if Jump.EndsXB() {
		t.Fatal("a direct jump must not end an XB")
	}
	if !Jump.EndsBasicBlock() {
		t.Fatal("a direct jump must end a basic block")
	}
}

func TestInstValidate(t *testing.T) {
	good := Inst{IP: 0x1000, Size: 3, NumUops: 2, Class: CondBranch, Target: 0x2000}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid inst rejected: %v", err)
	}
	bad := []Inst{
		{IP: 1, Size: 3, NumUops: 0, Class: Seq},                   // zero uops
		{IP: 1, Size: 3, NumUops: MaxUopsPerInst + 1, Class: Seq},  // too many uops
		{IP: 1, Size: 0, NumUops: 1, Class: Seq},                   // zero size
		{IP: 1, Size: 3, NumUops: 1, Class: Class(99)},             // bad class
		{IP: 1, Size: 3, NumUops: 1, Class: Jump, Target: 0},       // direct jump, no target
		{IP: 1, Size: 3, NumUops: 1, Class: Call, Target: 0},       // call, no target
		{IP: 1, Size: 3, NumUops: 1, Class: CondBranch, Target: 0}, // cond, no target
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad inst %d accepted: %+v", i, in)
		}
	}
}

func TestFallThrough(t *testing.T) {
	in := Inst{IP: 0x1000, Size: 5, NumUops: 1, Class: Seq}
	if got := in.FallThrough(); got != 0x1005 {
		t.Fatalf("FallThrough = %#x, want 0x1005", got)
	}
}

func TestUopIDRoundTrip(t *testing.T) {
	f := func(ip uint64, idx uint8) bool {
		a := Addr(ip &^ (3 << 62)) // keep the top two bits free for the index shift
		i := int(idx % MaxUopsPerInst)
		u := Uop(a, i)
		return u.IP() == a && u.Index() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUopIDDistinct(t *testing.T) {
	// Distinct (ip, idx) pairs must produce distinct identities.
	seen := make(map[UopID]bool)
	for ip := Addr(0x1000); ip < 0x1040; ip++ {
		for idx := 0; idx < MaxUopsPerInst; idx++ {
			u := Uop(ip, idx)
			if seen[u] {
				t.Fatalf("duplicate uop id for %#x/%d", ip, idx)
			}
			seen[u] = true
		}
	}
}
