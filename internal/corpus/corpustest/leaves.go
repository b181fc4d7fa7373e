// Package corpustest holds the leaf walk that the key-soundness tests
// share: every test that claims a key covers a whole spec walks the same
// leaves.
package corpustest

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// Mutation is one value with exactly one leaf changed. Field is the
// leaf's path ("Program.LoopTrip[1]"), with "=value" appended when the
// leaf took one of its listed alternatives ("Fidelity=sampled").
type Mutation[T any] struct {
	Field string
	Spec  T
}

// LeafMutations walks every leaf of base by reflection: each struct
// field, each array element, and the struct behind each non-nil pointer
// (copied, so base never changes). A leaf that alts lists by path yields
// one mutation per listed value that differs from it and keeps the value
// valid: the members of an enum, or a step large enough to matter. Any
// other leaf yields one mutation that nudges it, trying an increase first
// and a decrease when the increase is not valid. The walk fails the test
// on a leaf it cannot change validly, so a new field is covered (or
// flagged) without editing any test.
func LeafMutations[T any](tb testing.TB, base T, valid func(T) bool, alts map[string][]any) []Mutation[T] {
	tb.Helper()
	w := walker[T]{tb: tb, base: base, valid: valid, alts: alts}
	w.walk("", reflect.ValueOf(base), func(s *T) reflect.Value { return reflect.ValueOf(s).Elem() })
	return w.out
}

type walker[T any] struct {
	tb    testing.TB
	base  T
	valid func(T) bool
	alts  map[string][]any
	out   []Mutation[T]
}

// walk visits v, the part of base at path; at finds the same part in a
// copy of base, cloning every pointer on the way so the copy owns it.
func (w *walker[T]) walk(path string, v reflect.Value, at func(*T) reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			w.walk(name, v.Field(i), func(s *T) reflect.Value { return at(s).Field(i) })
		}
	case reflect.Array:
		for e := 0; e < v.Len(); e++ {
			w.walk(path+"["+strconv.Itoa(e)+"]", v.Index(e), func(s *T) reflect.Value { return at(s).Index(e) })
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		w.walk(path, v.Elem(), func(s *T) reflect.Value {
			p := at(s)
			clone := reflect.New(p.Type().Elem())
			clone.Elem().Set(p.Elem())
			p.Set(clone)
			return clone.Elem()
		})
	default:
		if vals, ok := w.alts[path]; ok {
			w.alternatives(path, vals, at)
		} else {
			w.nudge(path, at)
		}
	}
}

// alternatives sets the leaf to each listed value in turn.
func (w *walker[T]) alternatives(path string, vals []any, at func(*T) reflect.Value) {
	w.tb.Helper()
	n := len(w.out)
	for _, a := range vals {
		s := w.base
		v := at(&s)
		av := reflect.ValueOf(a)
		if av.Type() != v.Type() {
			w.tb.Fatalf("%s: alternative %v is a %s, want a %s", path, a, av.Type(), v.Type())
		}
		if v.Equal(av) {
			continue
		}
		v.Set(av)
		if w.valid(s) {
			w.out = append(w.out, Mutation[T]{Field: fmt.Sprintf("%s=%v", path, a), Spec: s})
		}
	}
	if len(w.out) == n {
		w.tb.Fatalf("%s: no valid alternative", path)
	}
}

// nudge changes the leaf by one step, up and else down.
func (w *walker[T]) nudge(path string, at func(*T) reflect.Value) {
	w.tb.Helper()
	for _, up := range []bool{true, false} {
		s := w.base
		v := at(&s)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			d := int64(1)
			if !up {
				d = -1
			}
			v.SetInt(v.Int() + d)
		case reflect.Uint32, reflect.Uint64:
			if up {
				v.SetUint(v.Uint() + 1)
			} else {
				v.SetUint(v.Uint() - 1)
			}
		case reflect.Float64:
			if up {
				v.SetFloat(v.Float() + 0.1)
			} else {
				v.SetFloat(v.Float() / 2)
			}
		case reflect.String:
			v.SetString(v.String() + "'")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			w.tb.Fatalf("%s: no nudge for kind %s", path, v.Kind())
		}
		if w.valid(s) {
			w.out = append(w.out, Mutation[T]{Field: path, Spec: s})
			return
		}
	}
	w.tb.Fatalf("%s: no valid nudge", path)
}
