package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// callbudget keeps the one leg path one: every leg a node runs — a
// query's, a fallback's, a peer's /v1/leg — goes through
// executeLegLocal in internal/server, the one place that runs a leg's
// kernel and selects its exits, and a remote leg's facts become its
// block once (dsa.FactBlock). A rule gives a function a budget of
// references in a package; method values and method expressions count
// like calls, so a second path cannot come back unseen.

// callBudget is one rule: the package may refer to fn exactly n times
// (outside tests), and the packages below it not at all.
type callBudget struct {
	fn  string // by funcName
	pkg string
	n   int
	msg string
}

// callBudgets is the rule table.
var callBudgets = []callBudget{
	{"(*repro/internal/dsa.Store).ExecuteLegTableCtx", "repro/internal/server", 1,
		"run every leg on a node through executeLegLocal, the one ExecuteLegTableCtx call site"},
	{"repro/internal/dsa.SelectExits", "repro/internal/server", 1,
		"select a leg's exits once, in executeLegLocal"},
	{"repro/internal/dsa.SelectExits", "repro/internal/cluster", 0,
		"a remote leg's facts become its block through dsa.FactBlock; executeLegLocal selects exits"},
}

// CallBudget returns the call-site budget analyzer.
func CallBudget() *Analyzer {
	return &Analyzer{
		Name:      "callbudget",
		Doc:       "one leg path: (*dsa.Store).ExecuteLegTableCtx and dsa.SelectExits referenced exactly once in internal/server, SelectExits never in internal/cluster",
		NeedTypes: true,
		Run:       runCallBudget,
	}
}

func runCallBudget(pass *Pass) {
	for _, b := range callBudgets {
		n := b.n
		if strings.HasPrefix(pass.PkgPath, b.pkg+"/") {
			n = 0
		} else if pass.PkgPath != b.pkg {
			continue
		}
		var refs []token.Pos
		for _, f := range pass.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				if id, ok := node.(*ast.Ident); ok {
					if fn, ok := funcName(pass.Info.Uses[id]); ok && fn == b.fn {
						refs = append(refs, id.Pos())
					}
				}
				return true
			})
		}
		switch {
		case len(refs) == n:
		case len(refs) == 0:
			pass.Reportf(pass.Files[0].Name.Pos(), "references to %s in %s: none, want %d: %s",
				qualifiedName(b.fn), pass.PkgPath, n, b.msg)
		default:
			for _, pos := range refs {
				pass.Reportf(pos, "references to %s in %s: %d, want %d: %s",
					qualifiedName(b.fn), pass.PkgPath, len(refs), n, b.msg)
			}
		}
	}
}
