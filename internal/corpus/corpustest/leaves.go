// Package corpustest holds the program.Spec leaf walk that the
// key-soundness tests share: every test that claims a key covers the
// whole spec walks the same leaves.
package corpustest

import (
	"reflect"
	"strconv"
	"testing"

	"xbc/internal/program"
)

// Mutation is one spec with exactly one leaf field changed.
type Mutation struct {
	Field string
	Spec  program.Spec
}

// LeafMutations walks every field of base by reflection, each array
// element separately, and returns one valid spec per leaf with that leaf
// nudged. It fails the test on a field kind it cannot nudge, so a new
// program.Spec field is covered (or flagged) without editing any test.
func LeafMutations(tb testing.TB, base program.Spec) []Mutation {
	tb.Helper()
	var out []Mutation
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Array {
			for e := 0; e < f.Type.Len(); e++ {
				out = append(out, nudgeLeaf(tb, base, f.Name+"["+strconv.Itoa(e)+"]", func(s *program.Spec) reflect.Value {
					return reflect.ValueOf(s).Elem().Field(i).Index(e)
				}))
			}
			continue
		}
		out = append(out, nudgeLeaf(tb, base, f.Name, func(s *program.Spec) reflect.Value {
			return reflect.ValueOf(s).Elem().Field(i)
		}))
	}
	return out
}

// nudgeLeaf changes the leaf at(spec) of a copy of base, trying an
// increase first and a decrease when the increase makes the spec
// invalid, and requires the result to validate.
func nudgeLeaf(tb testing.TB, base program.Spec, field string, at func(*program.Spec) reflect.Value) Mutation {
	tb.Helper()
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
			tb.Fatalf("program.Spec.%s: no nudge for kind %s", field, v.Kind())
		}
		if s.Validate() == nil {
			return Mutation{Field: field, Spec: s}
		}
	}
	tb.Fatalf("program.Spec.%s: no valid nudge", field)
	return Mutation{}
}
