package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("xbc/internal/xbcore"; fixtures use their absolute dir)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module without the go
// tool: module-internal imports are resolved from source under the module
// root, everything else is delegated to the standard library's source
// importer (which compiles GOROOT packages from source, so the loader
// works without network access or installed export data).
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	pkgs       map[string]*Package
	loading    map[string]bool
	typechecks map[string]int
	std        types.ImporterFrom
}

// TypeChecks reports how many times the loader has parsed and
// type-checked the package from scratch. Anything above one for a given
// path means the memoization regressed and the driver is re-doing the
// most expensive step of a lint run per dependent package.
func (l *Loader) TypeChecks(importPath string) int { return l.typechecks[importPath] }

// NewLoader creates a loader rooted at the module containing dir (found by
// walking up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModRoot:    root,
		ModPath:    modPath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		typechecks: make(map[string]int),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal packages load
// from source under the module root, all others go to the stdlib source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// LoadDir parses and type-checks the single package in dir (test files
// excluded), caching by import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)
	l.typechecks[importPath]++

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// goFilesIn lists the non-test Go files of dir that build on this
// platform (build constraints and GOOS/GOARCH file suffixes), sorted.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadPattern resolves a package pattern relative to the module root:
// "./..." loads every module package, "./internal/xbcore" (or the bare
// import path) loads one.
func (l *Loader) LoadPattern(pattern string) ([]*Package, error) {
	switch {
	case pattern == "./..." || pattern == "...":
		return l.loadAll()
	case strings.HasPrefix(pattern, "./"):
		rel := filepath.FromSlash(strings.TrimPrefix(pattern, "./"))
		path := l.ModPath
		if rel != "" && rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(filepath.Join(l.ModRoot, rel), path)
		if err != nil {
			return nil, err
		}
		return []*Package{pkg}, nil
	case pattern == l.ModPath || strings.HasPrefix(pattern, l.ModPath+"/"):
		rel := strings.TrimPrefix(strings.TrimPrefix(pattern, l.ModPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), pattern)
		if err != nil {
			return nil, err
		}
		return []*Package{pkg}, nil
	default:
		return nil, fmt.Errorf("lint: unsupported pattern %q (use ./... or ./dir)", pattern)
	}
}

// loadAll walks the module tree and loads every directory holding Go
// files, skipping testdata, hidden directories, and .github.
func (l *Loader) loadAll() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(l.ModRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := d.Name()
		if path != l.ModRoot && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModRoot, path)
		if err != nil {
			return err
		}
		importPath := l.ModPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(path, importPath)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// fixtureLoader is the process-wide loader behind LoadFixture. Fixtures
// only import the standard library, and the source importer re-compiles
// GOROOT packages from scratch per importer instance — a fresh loader
// per fixture made every fixture suite pay the full sync/context/fmt
// type-check again. One shared instance amortizes that to once per test
// binary. Fixture packages are keyed (and import-path'd) by absolute
// directory, since distinct analyzers all name their fixture dir "a".
var (
	fixtureMu     sync.Mutex
	fixtureLoader *Loader
)

// LoadFixture parses and type-checks a fixture directory as a standalone
// package (stdlib imports only), for the linttest harness. Results are
// memoized process-wide by absolute path.
func LoadFixture(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if fixtureLoader == nil {
		fset := token.NewFileSet()
		fixtureLoader = &Loader{
			Fset:       fset,
			ModRoot:    abs,
			ModPath:    "\x00none", // no module-internal imports in fixtures
			pkgs:       make(map[string]*Package),
			loading:    make(map[string]bool),
			typechecks: make(map[string]int),
		}
		fixtureLoader.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	}
	return fixtureLoader.LoadDir(abs, abs)
}
