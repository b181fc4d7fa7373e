package lint

import "testing"

// Two packages that both depend on internal/isa must share one
// type-check of it: the loader memoizes by import path, so the shared
// dependency is parsed and checked exactly once per loader.
func TestLoadOnce(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"./internal/xbcore", "./internal/frontend"} {
		if _, err := l.LoadPattern(pattern); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.TypeChecks("xbc/internal/isa"); n != 1 {
		t.Errorf("internal/isa type-checked %d times, want 1 (loader memoization regressed)", n)
	}
}

// Fixture loads are memoized process-wide: asking for the same dir twice
// must hand back the identical package, not re-type-check it.
func TestLoadFixtureMemoized(t *testing.T) {
	a, err := LoadFixture("testdata/src/malformed")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadFixture("testdata/src/malformed")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("LoadFixture returned distinct packages for the same dir")
	}
}

// Linting the whole tree must type-check every package once. The
// benchmark doubles as a regression gate: if the loader cache breaks,
// internal/isa (imported by most of the tree) gets re-checked per
// dependent and the assertion fires on the first iteration.
func BenchmarkLoadTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.LoadPattern("./..."); err != nil {
			b.Fatal(err)
		}
		if n := l.TypeChecks("xbc/internal/isa"); n != 1 {
			b.Fatalf("internal/isa type-checked %d times in one sweep, want 1", n)
		}
	}
}

// TestLoadHonorsBuildConstraints: internal/store declares lockDir once
// per platform behind build tags; type-checking every file regardless of
// its tag would see it declared twice.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPattern("./internal/store")
	if err != nil {
		t.Fatal(err)
	}
	if pkgs[0].Types.Scope().Lookup("lockDir") == nil {
		t.Error("lockDir missing from the loaded store package")
	}
}
