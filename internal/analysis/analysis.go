// Package analysis is a self-contained static-analysis framework plus the
// mwlint analyzer suite that enforces the repository's determinism and
// exhaustiveness invariants (see DESIGN.md, "Determinism rules & static
// analysis").
//
// Every figure the reproduction emits is only comparable to the paper's
// because a run is a pure function of its Config (seed included). The
// analyzers in this package make the properties that guarantee purity
// machine-checked instead of reviewed-for:
//
//   - detlint:    no wall clock, global randomness, or environment reads in
//     simulation packages
//   - maporder:   no order-sensitive work inside range-over-map loops in
//     sim-path packages
//   - exhaustive: switches over the repo's enum types cover every constant
//     or carry an explicit default
//   - simtime:    no silent conversions between time.Duration and the
//     sim.Time tick domain
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the analyzers port to the real multichecker verbatim
// if that dependency ever becomes available; the build environment for this
// repository is offline, so the driver and loader are implemented here on
// the standard library alone (go/parser + go/types with a module-aware
// importer).
//
// An intentional exception to any rule is annotated in the source with a
// line comment of the form
//
//	//mw:<analyzer> — <justification>
//
// on the flagged line or the line above it. The driver strips suppressed
// diagnostics after the analyzer runs, so annotations are honored uniformly
// and fixtures can test them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ModulePath is the import path of the module this suite analyzes. The
// loader resolves any import below it from the module root directory, and
// path-scoped analyzers match package paths against it.
const ModulePath = "mediaworm"

// An Analyzer describes one analysis: a name (used in diagnostics and in
// //mw:<name> suppression annotations), user-facing documentation, and the
// Run function applied to each package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one package to an analyzer. Files holds the package's
// syntax trees with comments; test files (*_test.go) are excluded by the
// driver — they do not feed simulation results, and determinism rules do
// not apply to them.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one finding. The driver may later drop it if the
	// source line carries a //mw:<name> annotation.
	Report func(Diagnostic)

	// exportFact/importFact carry facts through the Driver's fact store.
	exportFact func(types.Object, Fact)
	importFact func(types.Object, Fact) bool
}

// ExportObjectFact attaches fact to obj (a package-level declaration of the
// package under analysis) for consumption when importing packages are
// analyzed later. Facts cross the package boundary serialized; see Fact.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.exportFact(obj, fact)
}

// ImportObjectFact decodes into fact the datum this same analyzer exported
// for obj while analyzing the package that declares it, reporting whether
// such a fact exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.importFact(obj, fact)
}

// Reportf is a convenience wrapper formatting a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned at Pos within the Pass's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer // filled in by the driver

	// Suppressed marks a finding on an //mw:<name>-annotated line. The
	// Driver retains suppressed findings so front-ends can show them and so
	// the stale-annotation audit can tell a live exception from a dead one.
	Suppressed bool
}

// Suite returns the full mwlint analyzer suite in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{DetLint, MapOrder, Exhaustive, SimTime, SnapCover, HotPath, SharedState}
}

// annotationPrefix introduces an intentional-exception comment; the analyzer
// name follows immediately (e.g. "//mw:wallclock").
const annotationPrefix = "//mw:"

// annotationName maps an analyzer to the annotation token that suppresses
// it. DetLint uses the historical "wallclock" spelling from the issue that
// introduced it; every other analyzer is suppressed by its own name.
func annotationName(a *Analyzer) string {
	if a == DetLint {
		return "wallclock"
	}
	return a.Name
}

// An annotationSite is one //mw:<name> suppression comment: its position
// and the line it sits on (it suppresses that line and the next).
type annotationSite struct {
	pos  token.Pos
	line int
}

// annotationSites returns every //mw:<name> suppression annotation in file.
// For the hotpath analyzer, annotations inside a function's doc comment are
// excluded: there the token is the //mw:hotpath root marker (see HotPath),
// not a suppression, so it neither silences findings nor trips the
// stale-annotation audit.
func annotationSites(fset *token.FileSet, file *ast.File, name string) []annotationSite {
	want := annotationPrefix + name
	var docGroups map[*ast.CommentGroup]bool
	if name == "hotpath" {
		docGroups = make(map[*ast.CommentGroup]bool)
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				docGroups[fd.Doc] = true
			}
		}
	}
	var sites []annotationSite
	for _, cg := range file.Comments {
		if docGroups[cg] {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//") {
				continue
			}
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, want) {
				continue
			}
			// Require an exact token match: //mw:simtime must not also
			// suppress an analyzer named "sim".
			rest := strings.TrimPrefix(text, want)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != ':' &&
				rest[0] != '-' && !strings.HasPrefix(rest, "—") {
				continue
			}
			sites = append(sites, annotationSite{pos: c.Pos(), line: fset.Position(c.Pos()).Line})
		}
	}
	return sites
}

// suppressedLines returns the set of line numbers in file on which findings
// of the named annotation are suppressed: every line holding an
// "//mw:<name>" comment, and the line after it (so an annotation can sit
// either on the flagged line or immediately above it).
func suppressedLines(fset *token.FileSet, file *ast.File, name string) map[int]bool {
	lines := make(map[int]bool)
	for _, s := range annotationSites(fset, file, name) {
		lines[s.line] = true
		lines[s.line+1] = true
	}
	return lines
}

// inModule reports whether path names a package of this module.
func inModule(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// hasPathPrefix reports whether the package path equals prefix or is nested
// below it.
func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
