package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package: the unit a Driver
// analyzes.
type Package struct {
	Path      string // import path ("mediaworm/internal/core")
	Dir       string // directory the files were read from
	Fset      *token.FileSet
	Files     []*ast.File // all parsed files, test files included
	Types     *types.Package
	TypesInfo *types.Info
}

// A Loader parses and type-checks packages of the module rooted at Root,
// resolving standard-library imports from source (the environment has no
// compiled package archives) and module-local imports from the tree itself.
// It memoizes, so a shared Loader type-checks each dependency once.
//
// The zero Loader is not usable; call NewLoader.
type Loader struct {
	Root string // module root directory (holds go.mod)

	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package
	deps   map[string]*Package
	checks int
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
		deps: make(map[string]*Package),
	}
}

// Fset returns the file set all loaded packages share.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// TypeChecks reports how many type-check operations this loader has run.
// Memoization tests assert on it: re-requesting a dependency must not move
// the counter.
func (l *Loader) TypeChecks() int { return l.checks }

// Import implements types.Importer so a package under type-check can resolve
// its dependencies through the same loader.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if inModule(path) {
		pkg, err := l.check(path, l.dirFor(path), false)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, ModulePath), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// Load parses and type-checks the module package with the given import
// path, including its test files.
func (l *Loader) Load(path string) (*Package, error) {
	return l.check(path, l.dirFor(path), true)
}

// Dependency returns the full loaded form — syntax trees included — of the
// module package with the given import path, excluding its test files. The
// result is memoized and shared with import resolution, so a dependency
// that was already pulled in while type-checking another package is not
// checked again; the Driver leans on this to analyze each dependency once.
func (l *Loader) Dependency(path string) (*Package, error) {
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	return l.check(path, l.dirFor(path), false)
}

// LoadDir parses and type-checks the (possibly out-of-module) package in
// dir, pretending its import path is asPath. Fixture tests use this to
// place testdata packages at analyzer-relevant paths.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.check(asPath, dir, true)
}

// check loads the package in dir under import path `path`. When withTests
// is true, in-package test files are parsed and type-checked too (external
// _test packages are skipped — they are separate packages).
func (l *Loader) check(path, dir string, withTests bool) (*Package, error) {
	l.checks++
	names, err := goFileNames(dir, withTests)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// Drop external test packages (package foo_test): they cannot be
	// type-checked together with package foo. The package name comes from
	// the first non-test file so a lexically-early test file cannot
	// mislabel the package.
	base := files[0].Name.Name
	for i, f := range files {
		if !strings.HasSuffix(l.fset.Position(f.Package).Filename, "_test.go") {
			base = files[i].Name.Name
			break
		}
	}
	kept := files[:0]
	for _, f := range files {
		if f.Name.Name == base || f.Name.Name+"_test" == base {
			kept = append(kept, f)
		}
	}
	files = kept

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, TypesInfo: info}
	if !withTests {
		// Only dependency loads (never test files) are memoized for import
		// resolution and for the Driver's facts-only dependency passes.
		l.pkgs[path] = tpkg
		l.deps[path] = pkg
	}
	return pkg, nil
}

// goFileNames lists dir's Go files in lexical order, skipping test files
// unless withTests is set.
func goFileNames(dir string, withTests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ModulePackages walks the module tree under root and returns the import
// paths of every Go package, in lexical order. testdata trees, hidden
// directories, and vendored code are skipped.
func ModulePackages(root string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := ModulePath
		if rel != "." {
			path = ModulePath + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != path {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// FindModuleRoot walks up from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
