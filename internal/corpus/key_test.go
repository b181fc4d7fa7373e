package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"xbc/internal/program"
	"xbc/internal/trace"
	"xbc/internal/workload"
)

// mutation is one spec with exactly one leaf field changed.
type mutation struct {
	field string
	spec  program.Spec
}

// leafMutations walks every field of base by reflection, each array
// element separately, and returns one valid spec per leaf with that leaf
// nudged. It fails the test on a field kind it cannot nudge, so a new
// program.Spec field is covered (or flagged) without editing this test.
func leafMutations(t *testing.T, base program.Spec) []mutation {
	t.Helper()
	var out []mutation
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Array {
			for e := 0; e < f.Type.Len(); e++ {
				out = append(out, nudgeLeaf(t, base, f.Name+"["+strconv.Itoa(e)+"]", func(s *program.Spec) reflect.Value {
					return reflect.ValueOf(s).Elem().Field(i).Index(e)
				}))
			}
			continue
		}
		out = append(out, nudgeLeaf(t, base, f.Name, func(s *program.Spec) reflect.Value {
			return reflect.ValueOf(s).Elem().Field(i)
		}))
	}
	return out
}

// nudgeLeaf changes the leaf at(spec) of a copy of base, trying an
// increase first and a decrease when the increase makes the spec
// invalid, and requires the result to validate.
func nudgeLeaf(t *testing.T, base program.Spec, field string, at func(*program.Spec) reflect.Value) mutation {
	t.Helper()
	for _, up := range []bool{true, false} {
		s := base
		v := at(&s)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			d := int64(1)
			if !up {
				d = -1
			}
			v.SetInt(v.Int() + d)
		case reflect.Float64:
			if up {
				v.SetFloat(v.Float() + 0.01)
			} else {
				v.SetFloat(v.Float() / 2)
			}
		case reflect.String:
			v.SetString(v.String() + "'")
		default:
			t.Fatalf("program.Spec.%s: no nudge for kind %s", field, v.Kind())
		}
		if s.Validate() == nil {
			return mutation{field: field, spec: s}
		}
	}
	t.Fatalf("program.Spec.%s: no valid nudge", field)
	return mutation{}
}

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

	muts := leafMutations(t, small())
	if len(muts) < reflect.TypeOf(program.Spec{}).NumField() {
		t.Fatalf("walked %d leaves, fewer than the %d fields", len(muts), reflect.TypeOf(program.Spec{}).NumField())
	}
	seen := map[Key]string{base: "base"}
	c := newCorpus(2)
	for _, m := range muts {
		k, err := KeyFor(m.spec, uops)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s keys equal to %s", m.field, prev)
		}
		seen[k] = m.field

		got, err := c.stream(m.spec, uops)
		if err != nil {
			t.Fatalf("%s: corpus: %v", m.field, err)
		}
		want, err := trace.Generate(m.spec, uops)
		if err != nil {
			t.Fatalf("%s: generate: %v", m.field, err)
		}
		if got.Name != want.Name || !reflect.DeepEqual(got.Recs, want.Recs) {
			t.Errorf("%s: corpus stream differs from trace.Generate", m.field)
		}
	}
	if n := c.generates.Load(); n != uint64(len(muts)) {
		t.Fatalf("%d generations for %d distinct keys", n, len(muts))
	}
}

// TestStoreKeyFormat pins the persisted key format, hex(SHA-256 of the
// spec's JSON):uops, rebuilt here independently: a store written by an
// earlier build must keep serving corpus hits.
func TestStoreKeyFormat(t *testing.T) {
	w, _ := workload.ByName("doom")
	b, err := json.Marshal(w.Spec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	want := hex.EncodeToString(sum[:]) + ":40000"
	k, err := KeyFor(w.Spec, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := storeKeyFor(k); got != want {
		t.Fatalf("store key %q, want %q", got, want)
	}
}
