// Package analysis is the repo's project-invariant analyzer suite:
// the machinery behind cmd/tcvet, which go test also runs over the
// tree (TestRepoIsTCVetClean). Each hard-won contract of the
// distributed transitive-closure design is a mechanical check here
// instead of a claim in CHANGES.md: drained-and-closed HTTP response
// bodies (draincloser), the typed peer-error taxonomy (typederr), the
// tc_-prefixed metric catalog (metricname), row-form tables with no map
// keyed by node, edge or fragment pair (keyedmap), and the references
// each layer may make: its imports (importboundary), and the functions
// it has moved off, the wall clock in the breaker and retry state
// machines and the one leg path's call sites (bannedcall). The last
// three are rule tables resolved through go/types, so an import alias,
// a method value or a map type declared elsewhere counts like the
// plain text; the two reference tables share one rule type and one
// runner.
//
// The driver is deliberately zero-dependency (stdlib go/ast,
// go/parser, go/types only; no golang.org/x/tools import), in the
// same spirit as internal/metrics: the analysis layer must never be
// the reason the build grows a dependency tree. Analyzers report
// file:line:col diagnostics; true-but-intentional findings are
// silenced in place with
//
//	//tcvet:ignore <analyzer> <reason>
//
// on (or immediately above) the offending line, or
//
//	//tcvet:ignore-file <analyzer> <reason>
//
// anywhere in a file to exempt the whole file. The reason string is
// mandatory, and a suppression that no longer matches a diagnostic is
// itself a finding — the suppression set can never rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: an invariant violation (or a suppression
// hygiene problem) at a concrete source position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the check that produced it ("tcvet" for
	// suppression-directive hygiene findings emitted by the driver).
	Analyzer string
	// Message states what is violated and how to fix it.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one package: the parsed (and, when
// the analyzer asked for it, type-checked) source plus a reporting
// sink. Analyzers never see test files — the invariants are
// production-code contracts, and tests legitimately reach across them
// for oracles.
type Pass struct {
	// Fset resolves token.Pos values for every file of the pass.
	Fset *token.FileSet
	// PkgPath is the package's import path (e.g.
	// "repro/internal/cluster"); scoped analyzers key their rules off
	// it.
	PkgPath string
	// Files are the package's non-test files, parsed with comments.
	Files []*ast.File
	// Pkg and Info carry type information; nil/empty unless the
	// analyzer declared NeedTypes.
	Pkg  *types.Package
	Info *types.Info

	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one project-invariant check.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in
	// //tcvet:ignore directives.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// NeedTypes requests a type-checked Pass (slower: the loader
	// type-checks the package and its dependencies from source).
	NeedTypes bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Options configures the suite for one run.
type Options struct {
	// MetricCatalog is the set of metric names documented in the
	// README catalog; nil disables the metricname documentation
	// cross-check (fixture tests inject their own catalog, the driver
	// scrapes README.md).
	MetricCatalog map[string]bool
}

// Suite returns the full analyzer suite in its stable order.
func Suite(opts Options) []*Analyzer {
	return []*Analyzer{
		ImportBoundary(),
		DrainCloser(),
		TypedErr(),
		MetricName(opts.MetricCatalog),
		BannedCall(),
		KeyedMap(),
	}
}

// runAnalyzer applies one analyzer to one loaded package and returns
// its raw (unsuppressed) findings.
func runAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{
		Fset:     pkg.Fset,
		PkgPath:  pkg.Path,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		analyzer: a,
		sink:     &diags,
	}
	a.Run(pass)
	return diags
}

// RunSuite runs every analyzer over every package, applies the
// suppression directives, appends directive-hygiene findings (missing
// reasons, unknown analyzers, unused suppressions), and returns the
// surviving diagnostics sorted by position.
func RunSuite(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		sups, hygiene := collectSuppressions(pkg, known)
		out = append(out, hygiene...)
		for _, a := range analyzers {
			if a.NeedTypes && pkg.Types == nil {
				continue // load reported the type-check failure already
			}
			for _, d := range runAnalyzer(a, pkg) {
				if !sups.suppress(d) {
					out = append(out, d)
				}
			}
		}
		// A package that failed to type-check skipped the typed
		// analyzers, so their directives would all read as unused.
		if pkg.Types != nil {
			out = append(out, sups.unused()...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
