package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// keyedmap keeps the row-form tables in rows. A rule bans map types
// keyed by given types wherever a type is written — a map literal, a
// named or aliased map type, an instantiated generic map, declared here
// or in another package — or, for the given receiver types, any map in
// a method's signature.

// keyedMap is one rule: the keys it bans (or, with recvs, the methods
// whose signatures may hold no map at all), where, and what to do
// instead.
type keyedMap struct {
	// keys are the banned key types, "importpath.Name".
	keys []string
	// recvs, when set, names receiver types: their methods' signatures
	// may mention no map, whatever its key.
	recvs []string
	scope scope
	msg   string
}

// keyedMaps is the rule table.
var keyedMaps = []*keyedMap{
	{
		keys: []string{"repro/internal/graph.NodeID", "repro/internal/graph.Edge"},
		// kconn is out of scope: it is the k-connectivity approach §3
		// rejects, and its cost is what §3 reports.
		scope: scope{"repro/internal/fragment", "repro/internal/fragment/center",
			"repro/internal/fragment/linear", "repro/internal/fragment/bea"},
		msg: "a fragment's node set is its sorted node list, membership the table over node-table rows, and a fragmenter claims an edge by its fragment.Sweep position and marks a node by its row",
	},
	{
		recvs: []string{"CSR", "searcher"},
		scope: scope{"repro/internal/graph"},
		msg:   "searches are seeded and answered in rows (CSR.SeededSearch, dist/pred rows); the *Graph conveniences are the exempt ones",
	},
	{
		keys:  []string{"repro/internal/graph.NodeID"},
		scope: scope{"repro/internal/dsa/pipeline.go", "repro/internal/dsa/path.go", "repro/internal/tc/densecost.go"},
		msg:   "the pipelined walk seeds each site's distance row from the exits the last leg reached (DenseGraph.CostVectorCtx), and routes backtrack over pred rows",
	},
	{
		keys:  []string{"repro/internal/fragment.Pair"},
		scope: scope{"repro/internal/dsa/...", "repro/internal/store/...", "repro/internal/fragment/..."},
		msg:   "disconnection sets and complementary tables are one list ascending by (I, J) (Fragmentation.DisconnectionPairs, Store.CompTables)",
	},
}

// KeyedMap returns the keyed-map analyzer.
func KeyedMap() *Analyzer {
	return &Analyzer{
		Name:      "keyedmap",
		Doc:       "no map keyed by node id, edge or fragment pair where the tables are rows (internal/fragment and its §3 fragmenters, the pipelined walk and routes, the complementary information), and no map in a CSR or searcher method's signature",
		NeedTypes: true,
		Run:       runKeyedMap,
	}
}

func runKeyedMap(pass *Pass) {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		for _, r := range keyedMaps {
			if !r.scope.has(pass.PkgPath, name) {
				continue
			}
			if r.recvs != nil {
				r.checkMethods(pass, f)
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				e, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[e]
				if !ok || !tv.IsType() || !r.banned(tv.Type) {
					return true
				}
				pass.Reportf(e.Pos(), "%s in %s: %s", typeName(tv.Type), pass.PkgPath, r.msg)
				return false
			})
		}
	}
}

// banned reports whether t is a map with one of r's keys, or any map
// when r has none.
func (r *keyedMap) banned(t types.Type) bool {
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	if r.keys == nil {
		return true
	}
	key, ok := types.Unalias(m.Key()).(*types.Named)
	return ok && key.Obj().Pkg() != nil &&
		slices.Contains(r.keys, key.Obj().Pkg().Path()+"."+key.Obj().Name())
}

// checkMethods reports each method of r's receiver types in f whose
// signature mentions a banned map.
func (r *keyedMap) checkMethods(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil {
			continue
		}
		fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Signature()
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := types.Unalias(recv).(*types.Named)
		if !ok || !slices.Contains(r.recvs, named.Obj().Name()) {
			continue
		}
		if t := r.mention(sig); t != nil {
			pass.Reportf(fd.Name.Pos(), "%s.%s takes or returns %s: %s",
				strings.TrimPrefix(typeName(sig.Recv().Type()), "*"), fd.Name.Name, typeName(t), r.msg)
		}
	}
}

// mention returns the first banned map t mentions: t itself, or one
// its pointers, slices, arrays, channels or function signatures carry.
// Struct fields, interface methods and named types other than maps are
// not looked into.
func (r *keyedMap) mention(t types.Type) types.Type {
	if r.banned(t) {
		return t
	}
	switch u := types.Unalias(t).(type) {
	case *types.Pointer:
		return r.mention(u.Elem())
	case *types.Slice:
		return r.mention(u.Elem())
	case *types.Array:
		return r.mention(u.Elem())
	case *types.Chan:
		return r.mention(u.Elem())
	case *types.Signature:
		for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
			for v := range tuple.Variables() {
				if m := r.mention(v.Type()); m != nil {
					return m
				}
			}
		}
	}
	return nil
}
