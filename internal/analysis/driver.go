package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Driver runs analyzers over packages in module dependency order,
// carrying analyzer facts across package boundaries: before a package is
// analyzed, every module package it imports has been analyzed (facts-only),
// so Pass.ImportObjectFact can answer questions about imported declarations.
//
// Diagnostics are produced only for the packages the caller asks about;
// dependency passes exist to populate the fact store. The driver keeps
// suppressed diagnostics (marked Diagnostic.Suppressed) so front-ends can
// surface them, and it audits annotations: an //mw:<name>
// suppression that no longer suppresses anything is itself reported, so an
// exception cannot outlive its justification.
type Driver struct {
	Loader *Loader

	store *factStore
	done  map[string]bool // package paths whose facts are recorded
	order []string        // analysis order, for tests and debugging
}

// NewDriver returns a driver sharing the given loader (and so its memoized
// type-check results).
func NewDriver(l *Loader) *Driver {
	return &Driver{Loader: l, store: newFactStore(), done: make(map[string]bool)}
}

// Run loads each module import path, analyzes its dependencies for facts
// first, and returns the requested packages' diagnostics in input order
// (position-sorted within each package).
func (d *Driver) Run(analyzers []*Analyzer, paths []string) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, path := range paths {
		pkg, err := d.Loader.Load(path)
		if err != nil {
			return nil, err
		}
		diags, err := d.RunPackage(analyzers, pkg)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	return out, nil
}

// RunPackage analyzes one already-loaded package, first ensuring facts for
// every module package it imports (transitively). The returned diagnostics
// include suppressed findings and stale-annotation audit reports.
func (d *Driver) RunPackage(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	if err := d.ensureDeps(analyzers, pkg.Types); err != nil {
		return nil, err
	}
	diags, err := d.analyze(analyzers, pkg, true)
	if err != nil {
		return nil, err
	}
	d.done[pkg.Path] = true
	return diags, nil
}

// Order returns the package paths analyzed so far, dependencies first —
// the observable evidence that facts flow in import order.
func (d *Driver) Order() []string {
	return append([]string(nil), d.order...)
}

// ensureDeps analyzes (facts-only) every module dependency of tpkg that the
// driver has not seen yet, dependencies before dependents.
func (d *Driver) ensureDeps(analyzers []*Analyzer, tpkg *types.Package) error {
	for _, imp := range tpkg.Imports() {
		path := imp.Path()
		if !inModule(path) || d.done[path] {
			continue
		}
		dep, err := d.Loader.Dependency(path)
		if err != nil {
			return err
		}
		if err := d.ensureDeps(analyzers, dep.Types); err != nil {
			return err
		}
		if _, err := d.analyze(analyzers, dep, false); err != nil {
			return err
		}
		d.done[path] = true
	}
	return nil
}

// analyze runs every analyzer over pkg. When requested is false only fact
// side effects matter and no diagnostics are produced.
func (d *Driver) analyze(analyzers []*Analyzer, pkg *Package, requested bool) ([]Diagnostic, error) {
	d.order = append(d.order, pkg.Path)
	files := analysisFiles(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		raw, err := runAnalyzer(a, pkg, files, d.store)
		if err != nil {
			return nil, err
		}
		if !requested {
			continue
		}
		out = append(out, filterAndAudit(a, pkg, files, raw)...)
	}
	sortDiagnostics(pkg.Fset, out)
	return out, nil
}

// analysisFiles returns pkg's non-test files: determinism and coverage
// rules do not apply to test code.
func analysisFiles(pkg *Package) []*ast.File {
	var files []*ast.File
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(f.Package).Filename, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	return files
}

// runAnalyzer applies one analyzer to pkg and returns its raw diagnostics;
// the pass exports and imports facts through store.
func runAnalyzer(a *Analyzer, pkg *Package, files []*ast.File, store *factStore) ([]Diagnostic, error) {
	var raw []Diagnostic
	var factErr error
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d Diagnostic) { raw = append(raw, d) },
		exportFact: func(obj types.Object, f Fact) {
			if err := store.export(a.Name, obj, f); err != nil && factErr == nil {
				factErr = err
			}
		},
		importFact: func(obj types.Object, f Fact) bool {
			return store.load(a.Name, obj, f)
		},
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	if factErr != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, factErr)
	}
	return raw, nil
}

// filterAndAudit attributes raw diagnostics to their analyzer, marks the
// ones on annotated lines as suppressed, and reports every //mw:<name>
// annotation that suppresses nothing.
func filterAndAudit(a *Analyzer, pkg *Package, files []*ast.File, raw []Diagnostic) []Diagnostic {
	name := annotationName(a)
	var out []Diagnostic
	for _, f := range files {
		fname := pkg.Fset.Position(f.Package).Filename
		sites := annotationSites(pkg.Fset, f, name)
		suppressed := make(map[int]bool, 2*len(sites))
		for _, s := range sites {
			suppressed[s.line] = true
			suppressed[s.line+1] = true
		}
		hit := make(map[int]bool)
		for _, dg := range raw {
			pos := pkg.Fset.Position(dg.Pos)
			if pos.Filename != fname {
				continue
			}
			hit[pos.Line] = true
			dg.Analyzer = a
			dg.Suppressed = suppressed[pos.Line]
			out = append(out, dg)
		}
		for _, s := range sites {
			if hit[s.line] || hit[s.line+1] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      s.pos,
				Message:  fmt.Sprintf("stale //mw:%s annotation: no %s finding on this line or the next — remove the annotation or restore what it justified", name, a.Name),
				Analyzer: a,
			})
		}
	}
	return out
}

// sortDiagnostics orders diagnostics by file, line, column, then analyzer
// name, so output is stable regardless of analyzer registration order.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer.Name < diags[j].Analyzer.Name
	})
}
