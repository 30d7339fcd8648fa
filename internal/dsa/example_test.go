package dsa_test

import (
	"context"
	"fmt"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/graph"
)

// buildExampleStore fragments a 6-node path into two halves.
func buildExampleStore() (*dsa.Store, error) {
	g := graph.New()
	var sets [][]graph.Edge
	for half := 0; half < 2; half++ {
		var edges []graph.Edge
		for i := half * 3; i < half*3+3; i++ {
			e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1}
			g.AddEdge(e)
			g.AddEdge(e.Reverse())
			edges = append(edges, e, e.Reverse())
		}
		sets = append(sets, edges)
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		return nil, err
	}
	return dsa.Build(fr, dsa.Options{})
}

// Example demonstrates the full disconnection-set pipeline: build the
// store (complementary information), plan, query in parallel, and read
// the answer.
func Example() {
	store, err := buildExampleStore()
	if err != nil {
		panic(err)
	}
	plan, err := store.NewPlan(0, 6)
	if err != nil {
		panic(err)
	}
	res, err := store.RunPlanCtx(context.Background(), plan, dsa.EngineDijkstra)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cost %.0f via chain %v, %d sites\n", res.Cost, res.BestChain, len(res.PerSite))
	// Output: cost 6 via chain [0 1], 2 sites
}

// ExampleStore_QueryPath reconstructs the actual itinerary, not just
// the cost.
func ExampleStore_QueryPath() {
	store, err := buildExampleStore()
	if err != nil {
		panic(err)
	}
	_, route, err := store.QueryPath(context.Background(), 1, 5)
	if err != nil {
		panic(err)
	}
	fmt.Println(route.Nodes)
	// Output: [1 2 3 4 5]
}

// ExampleStore_RunPlanCtx answers the paper's "Is A connected to B?"
// query with the relational engine: connectivity is the Reachable bit
// of the same pipeline.
func ExampleStore_RunPlanCtx() {
	store, err := buildExampleStore()
	if err != nil {
		panic(err)
	}
	plan, err := store.NewPlan(0, 6)
	if err != nil {
		panic(err)
	}
	res, err := store.RunPlanCtx(context.Background(), plan, dsa.EngineSemiNaive)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Reachable)
	// Output: true
}

// ExampleStore_NewPlan shows the fragment-level strategy before
// execution.
func ExampleStore_NewPlan() {
	store, err := buildExampleStore()
	if err != nil {
		panic(err)
	}
	plan, err := store.NewPlan(0, 6)
	if err != nil {
		panic(err)
	}
	fmt.Printf("chains %v, legs %d, same fragment %v\n",
		plan.Chains, len(plan.Legs), plan.SameFragment)
	// Output: chains [[0 1]], legs 2, same fragment false
}
