package analysis

import (
	"go/ast"
	"slices"
	"strconv"
)

// bannedcall keeps the functions each layer has moved off out of it.
// A rule names functions and methods by their types.Object, so an
// import alias, a method value and a promoted method are caught like a
// plain call, and text in comments is not.

// bannedCall is one rule: the functions (and imports) it bans, where,
// and what to do instead.
type bannedCall struct {
	// funcs are banned by funcName; every reference counts.
	funcs []string
	// imports are banned import paths.
	imports []string
	// scope is where the ban holds, exempt where it does not after all.
	scope, exempt scope
	// perFunc reports a top-level declaration's first reference only,
	// so one //tcvet:ignore exempts a whole function.
	perFunc bool
	msg     string
}

// bannedCalls is the rule table.
var bannedCalls = []*bannedCall{
	{
		funcs:  []string{"context.TODO"},
		scope:  scope{"repro/..."},
		exempt: scope{"repro/benchmarks/..."},
		msg:    "every entry point takes its caller's context: thread it instead",
	},
	{
		funcs: []string{"(*repro/internal/relation.Relation).MustInsert"},
		scope: scope{"repro/internal/dsa/...", "repro/internal/cluster/...",
			"repro/internal/tc/densecost.go", "repro/internal/tc/bitset.go", "repro/internal/tc/costmatrix.go"},
		msg: "it validates and copies one row at a time on the query path: write leg tables as tc.CostMatrix cells, or adopt rows built in bulk with relation.Adopt",
	},
	{
		funcs:   []string{"sort.Slice"},
		imports: []string{"container/heap"},
		scope:   scope{"repro/internal/graph"},
		msg:     "searches run on the typed heap over index-addressed rows, listings on slices.Sort",
	},
	{
		funcs: []string{"(*repro/internal/graph.Graph).ShortestPaths"},
		scope: scope{"repro/internal/dsa/store.go"},
		msg:   "computeComp reads rows from CSR.Searches, not per-search maps",
	},
	{
		funcs:   []string{"repro/internal/graph.New", "repro/internal/graph.NewWithCapacity", "(*repro/internal/graph.Graph).AddEdge"},
		scope:   scope{"repro/internal/dsa"},
		perFunc: true,
		msg:     "a site keeps one graph, the CSR buildSite fills with graph.NewCSR: build no graph.Graph in internal/dsa",
	},
	{
		funcs: []string{"(*repro/internal/fragment.Fragmentation).Base"},
		scope: scope{"repro/internal/dsa/...", "repro/internal/server/...", "repro/internal/cluster/...",
			"repro/internal/store/...", "repro/pkg/tcq/..."},
		msg: "Base builds the whole graph on each call: read the node table (Nodes, HasNode, NumNodes, Coord) or Fragmentation.CSR",
	},
}

// BannedCall returns the banned-call analyzer.
func BannedCall() *Analyzer {
	return &Analyzer{
		Name:      "bannedcall",
		Doc:       "no reference to a function or import its layer has moved off: context.TODO, MustInsert on the query path, container/heap and sort.Slice in internal/graph, graph building in internal/dsa, Fragmentation.Base in the serving layers",
		NeedTypes: true,
		Run:       runBannedCall,
	}
}

func runBannedCall(pass *Pass) {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		var rules []*bannedCall
		for _, r := range bannedCalls {
			if r.scope.has(pass.PkgPath, name) && !r.exempt.has(pass.PkgPath, name) {
				rules = append(rules, r)
			}
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, r := range rules {
				if slices.Contains(r.imports, path) {
					pass.Reportf(imp.Pos(), "import of %s in %s: %s", path, pass.PkgPath, r.msg)
				}
			}
		}
		for _, decl := range f.Decls {
			reported := map[*bannedCall]bool{}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := funcName(pass.Info.Uses[id])
				if !ok {
					return true
				}
				for _, r := range rules {
					if slices.Contains(r.funcs, fn) && !(r.perFunc && reported[r]) {
						reported[r] = true
						pass.Reportf(id.Pos(), "%s in %s: %s", qualifiedName(fn), pass.PkgPath, r.msg)
					}
				}
				return true
			})
		}
	}
}
