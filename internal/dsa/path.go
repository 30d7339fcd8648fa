package dsa

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Route is a fully materialised shortest path: the node sequence in the
// base graph together with its cost. The paper's queries ("What is the
// cost of the shortest path between A and B?") are cost queries, but a
// railway passenger wants the itinerary; Route is reconstructed from
// per-site predecessor information plus the complementary path
// segments, without ever shipping fragment data between sites.
type Route struct {
	// Nodes is the node sequence from source to target (inclusive).
	Nodes []graph.NodeID
	// Cost is the summed edge cost, equal to Result.Cost.
	Cost float64
}

// QueryPath answers a shortest-path query and reconstructs the actual
// route. It is the pipelined walk (QueryPipelinedEngineCtx's, on the
// graph engine: one vector-seeded search per leg of each chain) with
// the winning chain's search trees kept, followed by a backtrack from
// the target: each leg's predecessor tree yields the site-local node
// sequence back to the border node the optimum entered through, which
// is where the previous leg's backtrack starts; hops that used a
// complementary shortcut are expanded into the global path segment.
//
// The Result therefore carries the walk's bookkeeping, as a
// ModePipelined answer does — Assembly is zero and TuplesShipped counts
// the running vector per walked leg — while Cost, Reachable, BestChain,
// SameFragment, Truncated and ChainsConsidered are what the plan
// executor reports for the same pair.
//
// Reconstruction never undercuts the paper's communication structure:
// the extra information per leg is one (entry, exit, path) list, still
// a small relation.
func (st *Store) QueryPath(ctx context.Context, source, target graph.NodeID) (*Result, *Route, error) {
	if st.problem != ProblemShortestPath {
		return nil, nil, fmt.Errorf("dsa: %w: store precomputed for reachability cannot reconstruct routes", ErrProblemMismatch)
	}
	res, trees, err := st.walkChains(ctx, source, target, EngineDijkstra)
	if err != nil {
		return nil, nil, err
	}
	if !res.Reachable {
		return res, nil, nil
	}
	// Backward over the legs (none when source == target): follow pred
	// from the leg's exit until a node without one, the seed the optimum
	// entered through. An exit that is itself that seed contributes no
	// hop.
	segments := make([][]graph.NodeID, len(trees))
	cur := target
	for i := len(trees) - 1; i >= 0; i-- {
		t := trees[i]
		k, _ := t.site.csr.Row(cur)
		local := []int32{k}
		for p := t.pred[k]; p >= 0; p = t.pred[p] {
			local = append(local, p)
		}
		slices.Reverse(local)
		if segments[i], err = st.expandShortcuts(t, local); err != nil {
			return nil, nil, err
		}
		cur = t.site.csr.IDs[local[0]]
	}
	nodes := []graph.NodeID{source}
	for _, seg := range segments {
		nodes = append(nodes, seg[1:]...)
	}
	return res, &Route{Nodes: nodes, Cost: res.Cost}, nil
}

// expandShortcuts replaces hops of a site-local path that correspond to
// complementary shortcut edges with the underlying global path
// segment. A graph edge u→v of exactly the hop's cost explains the hop
// whichever fragment owns it: if the search took a shortcut of that
// cost, the edge is a global segment just as cheap. Such an edge sits
// in a fragment of u's, found by binary search in its sorted edge set.
// Any other hop must have used a shortcut, and the global segment is
// recovered with a whole-graph search restricted by the known cost (the
// preprocessing could store the segments instead; recomputing keeps
// CompInfo small and the reconstruction exact either way).
func (st *Store) expandShortcuts(leg legTree, local []int32) ([]graph.NodeID, error) {
	const eps = 1e-9
	// The whole-graph search, built on the first shortcut hop and reused
	// by the rest: building it snapshots the whole graph.
	var search graph.Search
	ids := leg.site.csr.IDs
	out := []graph.NodeID{ids[local[0]]}
	for i := 0; i+1 < len(local); i++ {
		u, v := ids[local[i]], ids[local[i+1]]
		hopCost := leg.dist[local[i+1]] - leg.dist[local[i]]
		real := false
		for _, f := range st.fr.FragmentsOf(u) {
			es := st.fr.Fragment(f).Edges
			k, _ := slices.BinarySearchFunc(es, graph.Edge{From: u, To: v}, func(e, t graph.Edge) int {
				return cmp.Or(cmp.Compare(e.From, t.From), cmp.Compare(e.To, t.To))
			})
			for ; !real && k < len(es) && es[k].From == u && es[k].To == v; k++ {
				real = math.Abs(es[k].Weight-hopCost) <= eps*math.Max(1, es[k].Weight)
			}
		}
		if real {
			out = append(out, v)
			continue
		}
		// Shortcut: recover the global segment, backward along the search
		// tree from v to its root u, which out already ends with. The
		// search stops once v is settled: every node on v's tree path was
		// settled before it, so the segment is the whole search's.
		if search == nil {
			search = st.fr.CSR().Searches(1)[0]
		}
		nodes, gdist, gpred := search(u, false, []graph.NodeID{v})
		k, ok := slices.BinarySearch(nodes, v)
		if !ok || gdist[k] == graph.Inf {
			return nil, fmt.Errorf("dsa: cannot expand shortcut %d→%d", u, v)
		}
		if math.Abs(gdist[k]-hopCost) > eps*math.Max(1, hopCost) {
			return nil, fmt.Errorf("dsa: shortcut %d→%d cost drifted: %v vs %v", u, v, gdist[k], hopCost)
		}
		var seg []graph.NodeID
		for ; gpred[k] >= 0; k = int(gpred[k]) {
			seg = append(seg, nodes[k])
		}
		slices.Reverse(seg)
		out = append(out, seg...)
	}
	return out, nil
}

// Validate checks a route against a graph: consecutive nodes connected,
// edge costs summing to Cost. Tests and callers distrusting the
// reconstruction can verify cheaply.
func (r *Route) Validate(g *graph.Graph) error {
	const eps = 1e-6
	if len(r.Nodes) == 0 {
		return fmt.Errorf("dsa: empty route")
	}
	sum := 0.0
	for i := 0; i+1 < len(r.Nodes); i++ {
		u, v := r.Nodes[i], r.Nodes[i+1]
		best := math.Inf(1)
		for _, e := range g.Out(u) {
			if e.To == v && e.Weight < best {
				best = e.Weight
			}
		}
		if math.IsInf(best, 1) {
			return fmt.Errorf("dsa: route hop %d→%d is not a base edge", u, v)
		}
		sum += best
	}
	if math.Abs(sum-r.Cost) > eps*math.Max(1, math.Abs(r.Cost)) {
		return fmt.Errorf("dsa: route cost %v does not match claimed %v", sum, r.Cost)
	}
	return nil
}
