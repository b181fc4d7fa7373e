package jobspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"xbc/internal/snapshot"
	"xbc/internal/workload"
)

// The persisted key formats, rebuilt here by hand (the normalized spec's
// JSON, then SHA-256) and pinned to a literal: xbcd stores results under
// r:<Key> and warm state under s:<SnapshotKey>, and the cluster ring
// places a job by its Key, so a store or a ring written by an earlier
// build must keep serving hits and owners.

// formatSpec is the named-workload spec both pins key.
func formatSpec() Spec { return Spec{Frontend: KindXBC, Workload: "doom", Uops: 40_000} }

func hexSHA256(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestResultKeyFormat(t *testing.T) {
	doom, _ := workload.ByName("doom")
	byHand := hexSHA256(t, Spec{Frontend: KindXBC, Program: &doom.Spec, Uops: 40_000, Budget: DefaultBudget})
	const pinned = "e4d7be457835f6e512e4a7926c550b546fe02af71f52250edde4c04960f5ffcd"
	got, err := formatSpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	if got != byHand {
		t.Errorf("Key %s, rebuilt by hand %s", got, byHand)
	}
	if got != pinned {
		t.Errorf("Key %s, pinned %s", got, pinned)
	}
}

func TestSnapshotKeyFormat(t *testing.T) {
	doom, _ := workload.ByName("doom")
	byHand := hexSHA256(t, struct {
		Spec    Spec   `json:"spec"`
		Warmup  uint64 `json:"warmup"`
		Version uint32 `json:"version"`
	}{Spec{Frontend: KindXBC, Program: &doom.Spec, Budget: DefaultBudget}, 20_000, snapshot.Version})
	const pinned = "d6539e1432c5ae08ebaa37e5568190e89cc0b46c2665481afacfbb4edb0370b6"
	got, err := formatSpec().SnapshotKey()
	if err != nil {
		t.Fatal(err)
	}
	if got != byHand {
		t.Errorf("SnapshotKey %s, rebuilt by hand %s", got, byHand)
	}
	if got != pinned {
		t.Errorf("SnapshotKey %s, pinned %s", got, pinned)
	}
}
