package jobspec

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"xbc/internal/corpus"
	"xbc/internal/corpus/corpustest"
	"xbc/internal/interval"
	"xbc/internal/lru"
	"xbc/internal/program"
	"xbc/internal/sampling"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// projection is one cache key and the value it stands for.
type projection struct {
	name string
	key  func(Spec) (any, error)
	// value computes what the key caches, from the normalized spec and its
	// stream, with every cache off.
	value func(t *testing.T, n Spec, st *trace.Stream) any
	// keeps and drops classify every top-level Spec field: a dropped
	// field must leave both key and value unchanged.
	keeps, drops []string
	// overKeyed lists kept leaves that change the key but no value on any
	// base, with the reason the key keeps them.
	overKeyed map[string]string
}

var projections = []projection{
	{
		name:  "Key",
		key:   func(s Spec) (any, error) { return s.Key() },
		value: func(t *testing.T, n Spec, st *trace.Stream) any { return executeUncached(t, n, st) },
		keeps: []string{"Frontend", "Program", "Uops", "Budget", "Ports", "Check", "Fidelity", "Core", "Geometry"},
		drops: []string{"Workload"},
		overKeyed: map[string]string{
			"Program.Name": "hashed with the program, as the persisted r: format has it; a renamed copy of a program is a separate job",
		},
	},
	{
		name:  "StreamKey",
		key:   func(s Spec) (any, error) { return s.StreamKey() },
		value: func(t *testing.T, n Spec, st *trace.Stream) any { return st },
		keeps: []string{"Program", "Uops"},
		drops: []string{"Frontend", "Workload", "Budget", "Ports", "Check", "Fidelity", "Core", "Geometry"},
	},
	{
		name:  "SnapshotKey",
		key:   func(s Spec) (any, error) { return s.SnapshotKey() },
		value: func(t *testing.T, n Spec, st *trace.Stream) any { return warmBlob(t, n, st) },
		keeps: []string{"Frontend", "Program", "Uops", "Budget", "Ports", "Check", "Geometry"},
		drops: []string{"Workload", "Fidelity", "Core"},
		overKeyed: map[string]string{
			"Program.Name":          "hashed with the program, as the persisted s: format has it; a renamed copy of a program misses the snapshot cache and warms again",
			"Check":                 "checked runs never snapshot; the key keeps the frontend model whole",
			"Geometry.RenamerWidth": "the renamer width enters only when the metrics are finalized, after the warm state; the key keeps the geometry whole, so a run at another width warms again",
		},
	},
	{
		name:  "analysisKey",
		key:   func(s Spec) (any, error) { return s.analysisKey() },
		value: func(t *testing.T, n Spec, st *trace.Stream) any { return analyzeUncached(t, n, st) },
		keeps: []string{"Program", "Uops", "Fidelity", "Check"},
		drops: []string{"Frontend", "Workload", "Budget", "Ports", "Core", "Geometry"},
		overKeyed: map[string]string{
			"Program.Name": "inherited from the stream key, whose stream carries the name; a renamed copy of a program misses the analysis memo and analyzes again",
		},
	},
}

// keyBases holds one base spec per frontend kind, over small inline
// programs at lengths that keep the walk fast. Between them, their walks
// reach every generator knob and every geometry leaf. The estimate bases
// run past two sampling intervals, so their analysis really clusters.
func keyBases() []Spec {
	prog := func(seed int64, functions int) *program.Spec {
		p := program.DefaultSpec("probe", seed)
		p.Functions = functions
		return &p
	}
	core := interval.DefaultCore()
	return []Spec{
		{Frontend: KindIC, Workload: "probe", Program: prog(3, 16), Uops: 30_000, Ports: 1, Core: &core},
		{Frontend: KindDecoded, Workload: "probe", Program: prog(3, 8), Uops: 30_001, Budget: 4096, Fidelity: FidelitySampled},
		{Frontend: KindTC, Workload: "probe", Program: prog(1, 16), Uops: 24_000, Budget: 4096, Geometry: &Geometry{Ways: 2}},
		{Frontend: KindBBTC, Workload: "probe", Program: prog(2, 12), Uops: 62_000, Budget: 8192, Fidelity: FidelityEstimate},
		{Frontend: KindXBC, Workload: "probe", Program: prog(1, 8), Uops: 70_001, Budget: 4096, Fidelity: FidelityEstimate,
			Geometry: &Geometry{XBTBEntries: 2048, RenamerWidth: 6, Variant: "no-promotion"}},
	}
}

// keyAlternatives are the values the walk tries for the enum leaves, and
// a budget, length and XBTB step large enough to reshape the value.
func keyAlternatives() map[string][]any {
	alts := map[string][]any{
		"Budget":               {2048},
		"Uops":                 {uint64(16_000)},
		"Geometry.XBTBEntries": {0, 8},
		"Geometry.Variant":     {""},
	}
	for _, v := range Variants() {
		alts["Geometry.Variant"] = append(alts["Geometry.Variant"], v)
	}
	for _, k := range Kinds() {
		alts["Frontend"] = append(alts["Frontend"], k)
	}
	for _, f := range Fidelities() {
		alts["Fidelity"] = append(alts["Fidelity"], f)
	}
	return alts
}

// TestKeyProjectionsSound walks every leaf of a base spec per frontend
// kind and, for every cache key, compares the key and its value (computed
// with caching off) between the base and each mutation:
//   - a changed value always changes the key (no under-keying);
//   - a field the projection drops leaves key and value unchanged;
//   - every leaf the projection keeps changes the value on some base, or
//     is on its overKeyed list.
//
// It then runs every mutation through the attached caches after the base
// has filled them, and requires the cache-off values. A new Spec field
// fails the test until each projection classifies it.
func TestKeyProjectionsSound(t *testing.T) {
	fields := map[string]bool{}
	for i := 0; i < reflect.TypeOf(Spec{}).NumField(); i++ {
		fields[reflect.TypeOf(Spec{}).Field(i).Name] = true
	}
	for _, p := range projections {
		seen := map[string]bool{}
		for _, f := range append(append([]string(nil), p.keeps...), p.drops...) {
			if !fields[f] || seen[f] {
				t.Fatalf("%s: %q is not a Spec field, or is classified twice", p.name, f)
			}
			seen[f] = true
		}
		for f := range fields {
			if !seen[f] {
				t.Fatalf("%s: Spec.%s is neither kept nor dropped; classify it", p.name, f)
			}
		}
	}

	valid := func(s Spec) bool { return s.Normalize().Validate() == nil }
	streams := map[streamArgs]*trace.Stream{}
	walked := map[string]bool{}
	changes := make([]map[string]bool, len(projections)) // per projection: leaf -> value changed on some base
	for i := range changes {
		changes[i] = map[string]bool{}
	}
	var restored uint64
	for _, base := range keyBases() {
		muts := corpustest.LeafMutations(t, base, valid, keyAlternatives())
		baseKeys, baseVals := keysAndValues(t, base, streams)
		for _, m := range muts {
			leaf := strings.SplitN(m.Field, "=", 2)[0]
			field := strings.SplitN(strings.SplitN(leaf, ".", 2)[0], "[", 2)[0]
			walked[field], walked[leaf] = true, true
			keys, vals := keysAndValues(t, m.Spec, streams)
			for i, p := range projections {
				keyChanged := keys[i] != baseKeys[i]
				valChanged := !reflect.DeepEqual(vals[i], baseVals[i])
				if valChanged {
					changes[i][leaf] = true
				} else if _, ok := changes[i][leaf]; !ok {
					changes[i][leaf] = false
				}
				switch {
				case valChanged && !keyChanged:
					t.Errorf("%s base, %s: %s under-keys: the value changed, the key did not", base.Frontend, m.Field, p.name)
				case keyChanged && contains(p.drops, field):
					t.Errorf("%s base, %s: %s drops %s, yet its key changed", base.Frontend, m.Field, p.name, field)
				}
			}
		}
		restored += checkCachesOn(t, base, muts, streams)
	}
	if restored == 0 {
		t.Error("no mutation restored a snapshot: the cache-on pass never served warm state")
	}
	for f := range fields {
		if !walked[f] {
			t.Errorf("no base walked Spec.%s", f)
		}
	}
	for i := 0; i < reflect.TypeOf(Geometry{}).NumField(); i++ {
		if leaf := "Geometry." + reflect.TypeOf(Geometry{}).Field(i).Name; !walked[leaf] {
			t.Errorf("no base walked %s", leaf)
		}
	}
	for i, p := range projections {
		var leaves []string
		for leaf := range changes[i] {
			leaves = append(leaves, leaf)
		}
		sort.Strings(leaves)
		for _, leaf := range leaves {
			field := strings.SplitN(strings.SplitN(leaf, ".", 2)[0], "[", 2)[0]
			if !contains(p.keeps, field) {
				continue
			}
			_, over := p.overKeyed[leaf]
			switch {
			case !changes[i][leaf] && !over:
				t.Errorf("%s keeps %s, which changed the value on no base: list it as over-keyed, with the reason", p.name, leaf)
			case changes[i][leaf] && over:
				t.Errorf("%s lists %s as over-keyed, but it changes the value", p.name, leaf)
			}
		}
		for leaf := range p.overKeyed {
			if _, ok := changes[i][leaf]; !ok {
				t.Errorf("%s lists %s as over-keyed, but no base walked it", p.name, leaf)
			}
		}
	}
}

// checkCachesOn runs base and then each mutation through Execute with a
// snapshot manager and a fresh analysis memo attached (the corpus is
// always on), and requires every result, stream, analysis and warm state
// served to equal its cache-off value. It returns how many runs restored
// a snapshot.
func checkCachesOn(t *testing.T, base Spec, muts []corpustest.Mutation[Spec], streams map[streamArgs]*trace.Stream) uint64 {
	t.Helper()
	mgr := snapshot.NewManager(64, nil)
	SetSnapshotManager(mgr)
	defer ClearSnapshotManager(mgr)
	saved := analyses
	analyses = lru.New[analysisKey, sampling.Analysis](64)
	defer func() { analyses = saved }()

	if _, err := Execute(base); err != nil {
		t.Fatalf("%s base: %v", base.Frontend, err)
	}
	var restored uint64
	for _, m := range muts {
		n := m.Spec.Normalize()
		st := stream(t, n, streams)
		got, err := Execute(m.Spec)
		if err != nil {
			t.Fatalf("%s base, %s: %v", base.Frontend, m.Field, err)
		}
		if got.SnapshotHit {
			restored++
		}
		got.SnapshotHit = false
		if want := executeUncached(t, n, st); !reflect.DeepEqual(got, want) {
			t.Errorf("%s base, %s: Execute with caches on differs from the cache-off result", base.Frontend, m.Field)
		}
		if cs, err := corpus.Stream(*n.Program, n.Uops); err != nil || !reflect.DeepEqual(cs, st) {
			t.Errorf("%s base, %s: the corpus served another stream (%v)", base.Frontend, m.Field, err)
		}
		if a, err := analyzeCached(n, st.Recs); err != nil || !reflect.DeepEqual(a, analyzeUncached(t, n, st)) {
			t.Errorf("%s base, %s: the analysis memo served another analysis (%v)", base.Frontend, m.Field, err)
		}
		key, err := m.Spec.SnapshotKey()
		if err != nil {
			t.Fatal(err)
		}
		if blob, ok := mgr.Load(key); ok && !reflect.DeepEqual(blob, warmBlob(t, n, st)) {
			t.Errorf("%s base, %s: the snapshot manager holds another warm state", base.Frontend, m.Field)
		}
	}
	return restored
}

// keysAndValues computes every projection's key and cache-off value.
func keysAndValues(t *testing.T, s Spec, streams map[streamArgs]*trace.Stream) ([]any, []any) {
	t.Helper()
	n := s.Normalize()
	st := stream(t, n, streams)
	keys := make([]any, len(projections))
	vals := make([]any, len(projections))
	for i, p := range projections {
		k, err := p.key(s)
		if err != nil {
			t.Fatalf("%s of %+v: %v", p.name, s, err)
		}
		keys[i], vals[i] = k, p.value(t, n, st)
	}
	return keys, vals
}

// streamArgs are trace.Generate's arguments. The stream is a function of
// them, so the walk generates each once; the map compares the whole
// program value, not a hash of it.
type streamArgs struct {
	prog program.Spec
	uops uint64
}

func stream(t *testing.T, n Spec, streams map[streamArgs]*trace.Stream) *trace.Stream {
	t.Helper()
	args := streamArgs{*n.Program, n.Uops}
	if st, ok := streams[args]; ok {
		return st
	}
	st, err := trace.Generate(args.prog, args.uops)
	if err != nil {
		t.Fatal(err)
	}
	streams[args] = st
	return st
}

// executeUncached is Execute with no snapshot manager, no analysis memo
// and a freshly generated stream.
func executeUncached(t *testing.T, n Spec, st *trace.Stream) Result {
	t.Helper()
	res, err := execute(n, st.Recs, nil, func(n Spec, recs []trace.Rec) (sampling.Analysis, error) {
		return sampling.Analyze(recs, SamplingConfig(n.Fidelity))
	})
	if err != nil {
		t.Fatalf("%s: %v", n.Label(), err)
	}
	return res
}

func analyzeUncached(t *testing.T, n Spec, st *trace.Stream) sampling.Analysis {
	t.Helper()
	a, err := sampling.Analyze(st.Recs, SamplingConfig(n.Fidelity))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// warmBlob is the sealed warm state a full run of n saves, or nil when
// its warm-up point is outside the run.
func warmBlob(t *testing.T, n Spec, st *trace.Stream) []byte {
	t.Helper()
	fe, err := n.NewFrontend()
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := saveWarm(fe.NewSession(), st.Recs, n.Uops)
	return blob
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
