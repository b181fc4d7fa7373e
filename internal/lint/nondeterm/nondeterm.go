// Package nondeterm is the static twin of golden_test.go: it forbids the
// constructs that make simulator output differ between bit-identical
// runs — wall-clock reads, the auto-seeded global math/rand, and map
// iteration (whose order Go randomizes per run) — in the packages that
// produce Metrics, JSON, and report output.
//
// Map iteration that is genuinely order-insensitive (a commutative integer
// reduction, or key collection followed by an explicit sort) is suppressed
// with a justified //xbc:ignore nondeterm directive at the loop.
package nondeterm

import (
	"go/ast"
	"go/types"
	"strings"

	"xbc/internal/lint"
)

// corePackages are the packages whose output must be bit-reproducible:
// the five frontends' engines, the stats toolkit, the trace layer and its
// corpus, the figures, sampling, warm-state snapshots, the cache
// primitive, the persistent store (deterministic exports,
// crash-reproducible recovery), and the commands that render metrics and
// reports.
var corePackages = map[string]bool{
	"xbc/internal/xbcore":          true,
	"xbc/internal/tcache":          true,
	"xbc/internal/bbtc":            true,
	"xbc/internal/decoded":         true,
	"xbc/internal/icfe":            true,
	"xbc/internal/stats":           true,
	"xbc/internal/trace":           true,
	"xbc/internal/corpus":          true,
	"xbc/internal/experiments":     true,
	"xbc/internal/sampling":        true,
	"xbc/internal/snapshot":        true,
	"xbc/internal/lru":             true,
	"xbc/internal/store":           true,
	"xbc/internal/service":         true,
	"xbc/internal/service/api":     true,
	"xbc/internal/service/jobspec": true,
	"xbc/internal/planner":         true,
	"xbc/internal/planner/grid":    true,
	"xbc/internal/cluster":         true,
	"xbc/cmd/report":               true,
	"xbc/cmd/xbcsim":               true,
	"xbc/cmd/benchjson":            true,
	"xbc/cmd/xbcd":                 true,
	"xbc/cmd/xbcctl":               true,
}

// seededConstructors are the math/rand entry points that take an explicit
// seed (or an explicitly seeded source) and therefore stay reproducible.
var seededConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Analyzer is the nondeterm check.
var Analyzer = &lint.Analyzer{
	Name:  "nondeterm",
	Doc:   "forbids time.Now, unseeded global math/rand, and map iteration in packages that feed Metrics/JSON/report output",
	Match: func(path string) bool { return corePackages[path] },
	Run:   run,
}

func run(pass *lint.Pass) {
	info := pass.Pkg.Info
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj := info.Uses[n.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" {
					pass.Reportf(n.Pos(), "time.Now makes output depend on the wall clock; thread timestamps in from main or report cycle counts")
				}
			case "math/rand", "math/rand/v2":
				// Package-level functions draw from the auto-seeded
				// global source; methods on an explicitly seeded
				// *rand.Rand resolve to the receiver type, not the
				// package scope, and pass.
				if fn.Parent() == fn.Pkg().Scope() && !seededConstructors[fn.Name()] {
					pass.Reportf(n.Pos(), "global %s.%s is auto-seeded and differs between runs; use rand.New(rand.NewSource(seed))", pathBase(fn.Pkg().Path()), fn.Name())
				}
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(n.Pos(), "map iteration order is randomized per run; iterate sorted keys (or justify with //xbc:ignore nondeterm <reason> if the loop is order-insensitive)")
			}
		}
		return true
	})
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
