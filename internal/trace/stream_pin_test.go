package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"xbc/internal/isa"
	"xbc/internal/program"
	"xbc/internal/workload"
)

// pinUops is the length at which TestStreamsPinned hashes each stream;
// resetAfter is how many records the replay check walks before Reset. At
// resetAfter every one of the 26 workloads still has branches to reach
// for the first time (duke3d reaches its last new one at record 1163).
const (
	pinUops    = 20_000
	resetAfter = 1000
)

// pinnedStreams is the SHA-256 over every field of every record of the 21
// paper workloads and the 5 micro workloads at pinUops, in that order.
// It changes only when generation itself changes; any speed-up of
// program.Build, the walker or trace.Generate must leave it as it is.
const pinnedStreams = "41c5c1bbb861007f141af4d53f1f134db877ece0dd0755046c60fc714c05c845"

// TestStreamsPinned pins the generated streams bit for bit, and checks
// that Walker.Reset replays them. The replay walks resetAfter records,
// resets, and walks the whole stream again, so that it covers branches
// the walk had already reached when Reset ran and branches it first
// reaches after.
func TestStreamsPinned(t *testing.T) {
	ws := append(workload.All(), workload.Micro()...)
	h := sha256.New()
	var buf [20]byte
	for _, w := range ws {
		p, err := program.Build(w.Spec)
		if err != nil {
			t.Fatal(err)
		}
		s := GenerateFrom(p, pinUops)
		for _, r := range s.Recs {
			binary.LittleEndian.PutUint64(buf[0:], uint64(r.IP))
			binary.LittleEndian.PutUint64(buf[8:], uint64(r.Next))
			buf[16], buf[17], buf[18] = byte(r.Class), r.NumUops, r.Size
			buf[19] = 0
			if r.Taken {
				buf[19] = 1
			}
			h.Write(buf[:])
		}

		if !reachesNewBranch(s.Recs, resetAfter) {
			t.Fatalf("%s: no branch is first reached after record %d", w.Name, resetAfter)
		}
		wk := program.NewWalker(p)
		for range resetAfter {
			wk.Next()
		}
		wk.Reset()
		for i, want := range s.Recs {
			if got := FromDyn(wk.Next()); got != want {
				t.Fatalf("%s: record %d after Reset = %+v, want %+v", w.Name, i, got, want)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedStreams {
		t.Fatalf("streams hash %s, want %s", got, pinnedStreams)
	}
}

// reachesNewBranch reports whether some conditional or indirect branch in
// recs[from:] does not occur in recs[:from].
func reachesNewBranch(recs []Rec, from int) bool {
	seen := map[isa.Addr]bool{}
	for _, r := range recs[:from] {
		seen[r.IP] = true
	}
	for _, r := range recs[from:] {
		switch r.Class {
		case isa.CondBranch, isa.IndirectJump, isa.IndirectCall:
			if !seen[r.IP] {
				return true
			}
		}
	}
	return false
}
