package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strconv"
	"strings"
)

// bannedcall holds each layer to the references it may make: the
// functions it has moved off, the wall clock in the breaker and retry
// state machines, and the one leg path's call sites. importboundary
// runs the same rules over imports (importboundary.go). A rule names
// functions and methods by their types.Object, so an import alias, a
// method value and a promoted method are caught like a plain call, and
// text in comments is not.

// bannedCall is one rule: the functions and imports it budgets, where,
// and what to do instead.
type bannedCall struct {
	// funcs are named by funcName.
	funcs []string
	// imports are import paths, matched like a scope's packages.
	imports scope
	// scope is where the rule holds, exempt where it does not after all.
	scope, exempt scope
	// budget is how many references each package in scope makes: 0
	// bans them, n wants exactly n (none is reported at the package
	// clause).
	budget int
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
		imports: scope{"container/heap"},
		scope:   scope{"repro/internal/graph"},
		msg:     "searches run on the typed heap over index-addressed rows, listings on slices.Sort",
	},
	{
		funcs: []string{"(*repro/internal/graph.Graph).ShortestPaths"},
		scope: scope{"repro/internal/dsa/store.go"},
		msg:   "computeComp reads rows from CSR.Searches, each stopped once its node's disconnection-set peers settle, not whole-graph per-search maps",
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
	{
		// time.NewTimer is absent: sleepCtx is built on it.
		funcs: []string{"time.Now", "time.Sleep", "time.After", "time.AfterFunc", "time.Tick"},
		scope: scope{"repro/internal/cluster"},
		msg:   "breaker and retry timing flows through Config.Clock or sleepCtx, so their state-machine tests stay deterministic (a latency stamp takes a //tcvet:ignore with its reason)",
	},
	{
		funcs:  []string{"(*repro/internal/dsa.Store).ExecuteLegTableCtx"},
		scope:  scope{"repro/internal/server"},
		budget: 1,
		msg:    "run every leg on a node through executeLegLocal, the one ExecuteLegTableCtx call site",
	},
	{
		funcs:  []string{"repro/internal/dsa.SelectExits"},
		scope:  scope{"repro/internal/server"},
		budget: 1,
		msg:    "select a leg's exits once, in executeLegLocal",
	},
	{
		funcs:  []string{"(*repro/internal/dsa.Store).GoalBlockCtx"},
		scope:  scope{"repro/internal/server"},
		budget: 1,
		msg:    "answer a same-fragment leg's first miss by one search once, in executeLegLocal, beside the leg cache",
	},
	{
		funcs:  []string{"(*repro/internal/dsa.Store).ExecuteLegTableCtx", "repro/internal/dsa.SelectExits", "(*repro/internal/dsa.Store).GoalBlockCtx"},
		scope:  scope{"repro/internal/server/..."},
		exempt: scope{"repro/internal/server"},
		msg:    "executeLegLocal in internal/server runs a node's legs, same-fragment ones too, and selects their exits; the packages below it do none of that",
	},
	{
		funcs: []string{"repro/internal/dsa.SelectExits", "(*repro/internal/dsa.Store).GoalBlockCtx"},
		scope: scope{"repro/internal/cluster/..."},
		msg:   "a remote leg's facts become its block through dsa.FactBlock; executeLegLocal selects exits and answers same-fragment legs by one search",
	},
}

// BannedCall returns the banned-call analyzer.
func BannedCall() *Analyzer {
	return &Analyzer{
		Name:      "bannedcall",
		Doc:       "no reference its layer may not make: context.TODO, MustInsert on the query path, container/heap and sort.Slice in internal/graph, graph building in internal/dsa, Fragmentation.Base in the serving layers, the wall clock in internal/cluster; and the one leg path: ExecuteLegTableCtx, SelectExits and GoalBlockCtx exactly once each in internal/server, never below it, and SelectExits and GoalBlockCtx never in internal/cluster",
		NeedTypes: true,
		Run:       runBannedCall(bannedCalls),
	}
}

// runBannedCall returns the runner of one rule table. A reference
// counts against the first rule in scope that names it.
func runBannedCall(table []*bannedCall) func(*Pass) {
	type ref struct {
		pos  token.Pos
		name string
	}
	return func(pass *Pass) {
		refs := make([][]ref, len(table))
		inScope := make([]bool, len(table))
		for _, f := range pass.Files {
			name := pass.Fset.Position(f.Pos()).Filename
			var rules []int
			for i, r := range table {
				if r.scope.has(pass.PkgPath, name) && !r.exempt.has(pass.PkgPath, name) {
					inScope[i] = true
					rules = append(rules, i)
				}
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if i := slices.IndexFunc(rules, func(i int) bool { return table[i].imports.has(path, "") }); i >= 0 {
					refs[rules[i]] = append(refs[rules[i]], ref{imp.Pos(), "import of " + path})
				}
			}
			if pass.Info == nil {
				continue // an untyped pass checks imports only
			}
			for _, decl := range f.Decls {
				seen := map[int]bool{}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := funcName(pass.Info.Uses[id])
					if !ok {
						return true
					}
					i := slices.IndexFunc(rules, func(i int) bool { return slices.Contains(table[i].funcs, fn) })
					if i >= 0 && !(table[rules[i]].perFunc && seen[rules[i]]) {
						seen[rules[i]] = true
						refs[rules[i]] = append(refs[rules[i]], ref{id.Pos(), qualifiedName(fn)})
					}
					return true
				})
			}
		}
		for i, r := range table {
			got := refs[i]
			if !inScope[i] || len(got) == r.budget {
				continue
			}
			count := ""
			if r.budget > 0 {
				count = fmt.Sprintf(": %d, want %d", len(got), r.budget)
			}
			if len(got) == 0 {
				names := make([]string, len(r.funcs))
				for j, fn := range r.funcs {
					names[j] = qualifiedName(fn)
				}
				count = fmt.Sprintf(": none, want %d", r.budget)
				got = []ref{{pass.Files[0].Name.Pos(), strings.Join(names, ", ")}}
			}
			for _, x := range got {
				pass.Reportf(x.pos, "%s in %s%s: %s", x.name, pass.PkgPath, count, r.msg)
			}
		}
	}
}
