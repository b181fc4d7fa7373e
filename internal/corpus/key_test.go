package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"xbc/internal/corpus/corpustest"
	"xbc/internal/program"
	"xbc/internal/trace"
	"xbc/internal/workload"
)

// TestKeySoundness is the corpus slice of the key-soundness harness:
// every leaf of program.Spec, and the uop count, is part of the corpus
// key, equal specs key equal, and the stream served for each mutated
// spec is exactly what trace.Generate makes of that spec — so a key can
// neither alias two different streams nor split one.
func TestKeySoundness(t *testing.T) {
	// A small program keeps the builds cheap; the key covers the
	// same fields whatever their values.
	small := func() program.Spec {
		s := program.DefaultSpec("probe", 7)
		s.Functions = 6
		return s
	}
	const uops = 3_000
	base, err := KeyFor(small(), uops)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := KeyFor(small(), uops); k != base {
		t.Fatal("equal specs keyed differently")
	}
	if k, _ := KeyFor(small(), uops+1); k == base {
		t.Fatal("changing uops did not change the key")
	}

	muts := corpustest.LeafMutations(t, small(), validProgram, nil)
	if len(muts) < reflect.TypeOf(program.Spec{}).NumField() {
		t.Fatalf("walked %d leaves, fewer than the %d fields", len(muts), reflect.TypeOf(program.Spec{}).NumField())
	}
	seen := map[Key]string{base: "base"}
	c := newCorpus(2, defaultBytes)
	for _, m := range muts {
		k, err := KeyFor(m.Spec, uops)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s keys equal to %s", m.Field, prev)
		}
		seen[k] = m.Field

		got, err := c.stream(m.Spec, uops)
		if err != nil {
			t.Fatalf("%s: corpus: %v", m.Field, err)
		}
		want, err := trace.Generate(m.Spec, uops)
		if err != nil {
			t.Fatalf("%s: generate: %v", m.Field, err)
		}
		if got.Name != want.Name || !reflect.DeepEqual(got.Recs, want.Recs) {
			t.Errorf("%s: corpus stream differs from trace.Generate", m.Field)
		}
	}
	if n := c.generates.Load(); n != uint64(len(muts)) {
		t.Fatalf("%d generations for %d distinct keys", n, len(muts))
	}
}

func validProgram(s program.Spec) bool { return s.Validate() == nil }

// TestStoreKeyFormat pins the persisted key format, hex(SHA-256 of the
// spec's JSON), rebuilt here independently: the corpus saves one stream
// per program under it, whatever length was asked.
func TestStoreKeyFormat(t *testing.T) {
	w, _ := workload.ByName("doom")
	b, err := json.Marshal(w.Spec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	want := hex.EncodeToString(sum[:])
	st := newMapCorpusStore()
	c := newCorpus(2, defaultBytes)
	c.setStore(st)
	for _, uops := range []uint64{20_000, 40_000} {
		if _, err := c.stream(w.Spec, uops); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.m) != 1 || st.m[want] == nil {
		keys := make([]string, 0, len(st.m))
		for k := range st.m {
			keys = append(keys, k)
		}
		t.Fatalf("store keys %q, want only %q", keys, want)
	}
}

// TestStoreOldKeyIgnored: a store holding only a stream under the
// hex(spec hash):uops key of earlier builds regenerates, and never serves
// that blob. The blob here is another program's stream, so serving it
// would show.
func TestStoreOldKeyIgnored(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	doom, _ := workload.ByName("doom")
	const uops = 20_000
	foreign, err := trace.Generate(doom.Spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, foreign); err != nil {
		t.Fatal(err)
	}
	old, err := KeyFor(gcc.Spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	st := newMapCorpusStore()
	st.m[old.String()] = buf.Bytes()

	c := newCorpus(2, defaultBytes)
	c.setStore(st)
	got, err := c.stream(gcc.Spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Generate(gcc.Spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	sameStream(t, "gcc over an old-format blob", got, want)
	if n := c.generates.Load(); n != 1 {
		t.Fatalf("generated %d times, want 1", n)
	}
}
