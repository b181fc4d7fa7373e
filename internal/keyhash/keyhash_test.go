package keyhash

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
)

// Sum32 must match hash/fnv.New32a bit for bit: the queue sharded with
// the stdlib hash before this package existed, and a divergence would
// silently re-home every queued key.
func TestSum32MatchesStdlibFNV(t *testing.T) {
	keys := []string{
		"",
		"a",
		"3da1c9f2",
		"the quick brown fox",
		string([]byte{0x00, 0xff, 0x10, 0x80}),
	}
	for i := 0; i < 64; i++ {
		keys = append(keys, fmt.Sprintf("key-%d-%d", i, i*i))
	}
	for _, k := range keys {
		h := fnv.New32a()
		if _, err := h.Write([]byte(k)); err != nil {
			t.Fatal(err)
		}
		if got, want := Sum32(k), h.Sum32(); got != want {
			t.Errorf("Sum32(%q) = %#x, fnv.New32a = %#x", k, got, want)
		}
	}
}

// The hash values are pinned: they are placement decisions (queue shards,
// ring segments), so a change is a breaking re-home, not a refactor.
func TestSum32Golden(t *testing.T) {
	golden := map[string]uint32{
		"":    0x811c9dc5,
		"a":   0xe40c292c,
		"abc": 0x1a47e90b,
	}
	for k, want := range golden {
		if got := Sum32(k); got != want {
			t.Errorf("Sum32(%q) = %#x, want %#x", k, got, want)
		}
	}
}

func TestShardInRange(t *testing.T) {
	for n := 1; n <= 9; n++ {
		seen := map[int]bool{}
		for i := 0; i < 256; i++ {
			s := Shard(fmt.Sprintf("key-%d", i), n)
			if s < 0 || s >= n {
				t.Fatalf("Shard(key-%d, %d) = %d out of range", i, n, s)
			}
			seen[s] = true
		}
		if len(seen) != n {
			t.Errorf("256 keys over %d shards hit only %d shards", n, len(seen))
		}
	}
}

func BenchmarkSum32(b *testing.B) {
	key := "3da1c9f2a7b04e61d5c8090f1e2b3a4c5d6e7f8091a2b3c4d5e6f70812345678"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum32(key)
	}
}

// Content is the hex SHA-256 of the value's JSON: every persisted key is
// built from it, so it is rebuilt here by hand.
func TestContentIsSHA256OfJSON(t *testing.T) {
	v := struct {
		Name string  `json:"name"`
		Uops uint64  `json:"uops"`
		W    float64 `json:"w"`
	}{"gcc", 40_000, 0.72}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got, err := Content(v); err != nil || got != hex.EncodeToString(sum[:]) {
		t.Fatalf("Content = %s, %v; want %x", got, err, sum)
	}
	if _, err := Content(func() {}); err == nil {
		t.Fatal("Content of an unencodable value must fail")
	}
}
