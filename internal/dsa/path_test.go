package dsa

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fragment"
	"repro/internal/graph"
)

func TestQueryPathChain(t *testing.T) {
	st, g := pathStore(t)
	res, route, err := st.QueryPath(context.Background(), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || route == nil {
		t.Fatal("route missing")
	}
	want := []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if !reflect.DeepEqual(route.Nodes, want) {
		t.Errorf("route = %v, want %v", route.Nodes, want)
	}
	if route.Cost != 8 {
		t.Errorf("route cost = %v", route.Cost)
	}
	if err := route.Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestQueryPathSelfAndUnreachable(t *testing.T) {
	st, _ := pathStore(t)
	res, route, err := st.QueryPath(context.Background(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || route == nil || len(route.Nodes) != 1 {
		t.Errorf("self route = %+v", route)
	}

	g := graph.New()
	e1 := graph.Edge{From: 0, To: 1, Weight: 1}
	e2 := graph.Edge{From: 5, To: 6, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1}, {e2}})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, route2, err := st2.QueryPath(context.Background(), 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reachable || route2 != nil {
		t.Error("unreachable query returned a route")
	}
}

func TestQueryPathThroughShortcut(t *testing.T) {
	// Same topology as TestShortcutCapturesOutsidePath: the best route
	// 0→2→1 leaves fragment 0; the reconstructed route must be the real
	// base-graph path, not the shortcut pseudo-edge.
	g := graph.New()
	exp := graph.Edge{From: 0, To: 1, Weight: 10}
	d1 := graph.Edge{From: 0, To: 2, Weight: 1}
	d2 := graph.Edge{From: 2, To: 1, Weight: 1}
	var sets [][]graph.Edge
	sets = append(sets, []graph.Edge{exp, exp.Reverse()})
	sets = append(sets, []graph.Edge{d1, d1.Reverse(), d2, d2.Reverse()})
	for _, s := range sets {
		for _, e := range s {
			g.AddEdge(e)
		}
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, route, err := st.QueryPath(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if route == nil {
		t.Fatal("no route")
	}
	want := []graph.NodeID{0, 2, 1}
	if !reflect.DeepEqual(route.Nodes, want) {
		t.Errorf("route = %v, want %v (expanded through the shortcut)", route.Nodes, want)
	}
	if err := route.Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestQueryPathHopOwnedByNeighbour: the winning route 0→1→2→3 crosses
// the disconnection set {1, 2} on a shortcut whose cost is exactly the
// real edge 1→2 — an edge of the OTHER fragment. The hop is a base edge
// and must come back as one.
func TestQueryPathHopOwnedByNeighbour(t *testing.T) {
	g := graph.New()
	sets := [][]graph.Edge{
		{{From: 0, To: 1, Weight: 1}, {From: 2, To: 3, Weight: 1}},
		{{From: 1, To: 2, Weight: 2}},
	}
	for _, s := range sets {
		for _, e := range s {
			g.AddEdge(e)
		}
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, route, err := st.QueryPath(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if route == nil || res.Cost != 4 {
		t.Fatalf("route = %+v, result = %+v; want a route of cost 4", route, res)
	}
	if want := []graph.NodeID{0, 1, 2, 3}; !reflect.DeepEqual(route.Nodes, want) {
		t.Errorf("route = %v, want %v", route.Nodes, want)
	}
	if err := route.Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestQueryPathTiesAreDeterministic: the second leg's search is seeded
// with both border nodes 1 and 2 at cost 1, and both reach 3 at cost 2.
// The seeds are pushed in ascending row order, so the lowest-row seed
// wins the tie and every call returns the same route through 1.
func TestQueryPathTiesAreDeterministic(t *testing.T) {
	g := graph.New()
	sets := [][]graph.Edge{
		{{From: 0, To: 1, Weight: 1}, {From: 0, To: 2, Weight: 1}},
		{{From: 1, To: 3, Weight: 1}, {From: 2, To: 3, Weight: 1}, {From: 3, To: 4, Weight: 1}},
	}
	for _, s := range sets {
		for _, e := range s {
			g.AddEdge(e)
		}
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{0, 1, 3, 4}
	for i := 0; i < 200; i++ {
		_, route, err := st.QueryPath(context.Background(), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if route == nil || !reflect.DeepEqual(route.Nodes, want) {
			t.Fatalf("call %d: route = %+v, want %v", i, route, want)
		}
	}
}

func TestRouteValidateRejectsBadRoutes(t *testing.T) {
	g := graph.New()
	g.AddEdge(graph.Edge{From: 0, To: 1, Weight: 2})
	if err := (&Route{Nodes: []graph.NodeID{0, 5}, Cost: 2}).Validate(g); err == nil {
		t.Error("non-edge hop accepted")
	}
	if err := (&Route{Nodes: []graph.NodeID{0, 1}, Cost: 99}).Validate(g); err == nil {
		t.Error("wrong cost accepted")
	}
	if err := (&Route{}).Validate(g); err == nil {
		t.Error("empty route accepted")
	}
	if err := (&Route{Nodes: []graph.NodeID{0, 1}, Cost: 2}).Validate(g); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
}

// TestQueryPathIsTheWalk: QueryPath is the pipelined walk with its
// search trees kept — one search per leg of each chain, where the
// per-entry reconstruction it replaces ran one per entry node — and it
// reports what the executor reports for the pair, with a route the base
// graph accepts. All pairs of a loosely connected grid and of a cyclic,
// two-chain center fragmentation, so border nodes that are entry and
// exit of one leg, border sources and targets and source == target are
// all walked.
func TestQueryPathIsTheWalk(t *testing.T) {
	ctx := context.Background()
	for _, topo := range applyTopologies {
		if topo.name != "grid-linear" && topo.name != "transport-center" {
			continue
		}
		t.Run(topo.name, func(t *testing.T) {
			fr, err := topo.build(1)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Build(fr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			g := fr.Base()
			multiChain, entryIsExit := 0, 0
			for _, src := range g.Nodes() {
				for _, dst := range g.Nodes() {
					plan, err := st.NewPlan(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					want, err := st.RunPlanCtx(ctx, plan, EngineDijkstra)
					if err != nil {
						t.Fatal(err)
					}
					res, route, err := st.QueryPath(ctx, src, dst)
					if err != nil {
						t.Fatalf("QueryPath(%d, %d): %v", src, dst, err)
					}
					if res.Reachable != want.Reachable || !reflect.DeepEqual(res.BestChain, want.BestChain) ||
						res.SameFragment != want.SameFragment || res.Truncated != want.Truncated ||
						res.ChainsConsidered != want.ChainsConsidered ||
						res.Reachable && math.Abs(res.Cost-want.Cost) > 1e-9*math.Max(1, want.Cost) {
						t.Fatalf("QueryPath(%d, %d) = %+v, the executor says %+v", src, dst, res, want)
					}
					// Both fixtures are symmetric and connected: no chain
					// breaks, so every leg of every chain is walked.
					legs, searches := 0, 0
					if src != dst {
						for _, chain := range plan.Chains {
							legs += len(chain)
							if len(chain) > 1 && slices.Contains(fr.DisconnectionSet(chain[0], chain[1]), src) {
								entryIsExit++
							}
						}
					}
					for _, w := range res.PerSite {
						searches += w.Legs
					}
					if searches != legs || res.MessagesSent != legs {
						t.Fatalf("QueryPath(%d, %d) ran %d searches (%d messages) for %d chain legs", src, dst, searches, res.MessagesSent, legs)
					}
					if len(plan.Chains) > 1 {
						multiChain++
					}
					if route == nil || route.Nodes[0] != src || route.Nodes[len(route.Nodes)-1] != dst || route.Cost != res.Cost {
						t.Fatalf("QueryPath(%d, %d) route = %+v for %+v", src, dst, route, res)
					}
					if err := route.Validate(g); err != nil {
						t.Fatalf("QueryPath(%d, %d) route %v: %v", src, dst, route.Nodes, err)
					}
				}
			}
			if entryIsExit == 0 {
				t.Error("no query entered a leg on one of its own exit nodes")
			}
			if multiChain == 0 {
				t.Error("no query had more than one chain to choose from")
			}
			if cyclic := topo.name == "transport-center"; cyclic == st.LooselyConnected() {
				t.Errorf("fixture %s: LooselyConnected = %v", topo.name, !cyclic)
			}
		})
	}
}
