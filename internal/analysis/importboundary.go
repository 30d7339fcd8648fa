package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// importboundary enforces the layering that PR 4 fought for and
// CHANGES.md only claims: the execution planner (internal/dsa) is
// reachable through the pkg/tcq facade and the few engine-adjacent
// internals, never from binaries or examples; the serving layer sits
// above the cluster layer, never below it; the boxed relational algebra
// stays off the serving path; and the metrics exporter stays
// zero-dependency. The rules are allowlists — adding a new
// legitimate importer is a deliberate one-line change here, reviewed
// as such, instead of an accidental import that quietly collapses a
// layer.

// boundaryRule restricts who may import target.
type boundaryRule struct {
	// target is the restricted import path.
	target string
	// allowed lists the import paths (exact, or prefix when ending in
	// "/") permitted to import target.
	allowed []string
	// why completes the diagnostic: the layering fact the rule
	// preserves.
	why string
}

// boundaryRules is the project's layering contract. Test files are
// exempt wholesale (the loader never parses them), and internal/oracle is
// the reason: its non-test half imports pkg/tcq only, while its tests
// stand one generation up through every layer at once — facade, store
// directory, server, cluster — to hold them to each other.
var boundaryRules = []boundaryRule{
	{
		target: "repro/internal/dsa",
		allowed: []string{
			"repro/pkg/tcq",          // the public facade over the planner
			"repro/internal/server",  // the serving executor behind the facade
			"repro/internal/cluster", // maps dsa sentinels across the wire
			"repro/internal/bench",   // the paper's §4 experiments measure the planner directly
			"repro/internal/phe",     // paper-era harness predating the facade
			"repro/internal/sim",     // paper-era harness predating the facade
			"repro/internal/store",   // (de)serializes built stores: fragments and complementary tables
		},
		why: "the planner is internal; binaries and examples go through pkg/tcq (PR 4 removed every other import)",
	},
	{
		target: "repro/internal/store",
		allowed: []string{
			"repro/pkg/tcq", // the persistence facade (snapshots, durable applies)
		},
		why: "the persistence subsystem is reached through pkg/tcq's snapshot and store API; direct use would bypass the journal ordering the facade enforces",
	},
	{
		target: "repro/internal/server",
		allowed: []string{
			"repro/cmd/tcserver",     // the serving daemon
			"repro/internal/loadgen", // the load driver speaks the server's /v1 wire types
		},
		why: "the serving layer is the top of the stack; lower layers importing it would invert the architecture",
	},
	{
		target: "repro/internal/loadgen",
		allowed: []string{
			"repro/cmd/tcload", // the load driver's CLI
		},
		why: "the load driver is an HTTP client of a running server; nothing a server is built from may depend on it",
	},
	{
		target: "repro/internal/cluster",
		allowed: []string{
			"repro/internal/server", // owns the scatter half of scatter-gather
			"repro/pkg/tcq",         // re-exports the typed peer-error taxonomy
			"repro/cmd/tcserver",    // parses -peers / -fault-script flags
		},
		why: "cluster sits under the serving layer; new importers are a deliberate layering decision",
	},
	{
		target: "repro/internal/relation",
		allowed: []string{
			"repro/internal/tc",      // the relational closures, and tc.CostMatrix's relation adapter
			"repro/internal/dsa",     // the semi-naive arm and the harness's relation-typed seams
			"repro/internal/cluster", // the harness's wire seams: NewLegResponse and Facts
			"repro/internal/sim",     // charges the semi-naive engine on the unfragmented graph
			"repro/cmd/tcclosure",    // closures over a graph file's edge relation
			"repro/examples/partsdb", // the relational algebra as a library
			"repro/benchmarks",       // the ledger's walker and probes hold leg tables as relations until it reads spans
		},
		why: "leg tables are tc.CostMatrix from kernel to cache to wire; boxed relations stay with the reference engines and the harness's seams",
	},
}

// zeroDepPkgs must import nothing from the module: their whole value
// is that they can never drag the tree into a cycle or a dependency.
var zeroDepPkgs = map[string]string{
	"repro/internal/metrics": "the Prometheus exporter is zero-dependency by contract (PR 6); importing the module from it risks cycles and breaks that promise",
}

// ImportBoundary returns the layering analyzer.
func ImportBoundary() *Analyzer {
	return &Analyzer{
		Name: "importboundary",
		Doc:  "enforce the package layering: internal/dsa behind pkg/tcq, server above cluster, internal/relation off the serving path, metrics zero-dependency",
		Run:  runImportBoundary,
	}
}

func runImportBoundary(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := zeroDepPkgs[pass.PkgPath]; ok && (path == "repro" || strings.HasPrefix(path, "repro/")) {
				pass.Reportf(imp.Pos(), "package %s must not import %s: %s", pass.PkgPath, path, why)
				continue
			}
			for _, rule := range boundaryRules {
				if path != rule.target || allowedImporter(pass.PkgPath, rule.allowed) {
					continue
				}
				pass.Reportf(imp.Pos(), "package %s must not import %s: %s", pass.PkgPath, rule.target, rule.why)
			}
		}
	}
}

// allowedImporter reports whether pkg appears in the allowlist.
func allowedImporter(pkg string, allowed []string) bool {
	for _, a := range allowed {
		if pkg == a || (strings.HasSuffix(a, "/") && strings.HasPrefix(pkg, a)) {
			return true
		}
	}
	return false
}

// importName returns the local name an import is bound to in a file:
// the explicit alias, or the path's last element.
func importName(imp *ast.ImportSpec) string {
	if imp.Name != nil {
		return imp.Name.Name
	}
	path, err := strconv.Unquote(imp.Path.Value)
	if err != nil {
		return ""
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// fileImports maps each local import name of f to its import path —
// the syntactic resolution the untyped analyzers use to recognise
// qualified references like time.Now.
func fileImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		if name := importName(imp); name != "" && name != "_" && name != "." {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil {
				out[name] = path
			}
		}
	}
	return out
}
