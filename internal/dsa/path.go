package dsa

import (
	"context"
	"fmt"
	"math"

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
// route. It runs the standard (sequential, Dijkstra-engine) pipeline
// and then expands the winning chain: for each leg the per-site
// predecessor tree yields the fragment-local node sequence, and hops
// that used a complementary shortcut are expanded into the precomputed
// global path segment.
//
// Reconstruction never undercuts the paper's communication structure:
// the extra information per leg is one (entry, exit, path) list, still
// a small relation.
func (st *Store) QueryPath(ctx context.Context, source, target graph.NodeID) (*Result, *Route, error) {
	if st.problem != ProblemShortestPath {
		return nil, nil, fmt.Errorf("dsa: %w: store precomputed for reachability cannot reconstruct routes", ErrProblemMismatch)
	}
	plan, err := st.NewPlan(source, target)
	if err != nil {
		return nil, nil, err
	}
	res, err := st.RunPlanCtx(ctx, plan, EngineDijkstra, false)
	if err != nil {
		return nil, nil, err
	}
	if !res.Reachable {
		return res, nil, nil
	}
	if source == target {
		return res, &Route{Nodes: []graph.NodeID{source}, Cost: 0}, nil
	}
	route, err := st.reconstruct(source, target, res.BestChain, res.Cost)
	if err != nil {
		return nil, nil, err
	}
	return res, route, nil
}

// reconstruct rebuilds the node sequence along the winning fragment
// chain with a backward dynamic program: cost-to-go vectors per chain
// position identify the border nodes the optimum passed through, then
// each leg's local path is expanded.
func (st *Store) reconstruct(source, target graph.NodeID, chain []int, totalCost float64) (*Route, error) {
	const eps = 1e-9
	type hop struct {
		site     int
		from, to graph.NodeID
		legCost  float64
	}

	// Forward vectors: costs[i] maps border nodes after leg i to their
	// best cost from the source. legDist[i] holds the site-local
	// distance maps per entry node for leg i.
	n := len(chain)
	costs := make([]map[graph.NodeID]float64, n+1)
	costs[0] = map[graph.NodeID]float64{source: 0}
	legDist := make([]map[graph.NodeID]map[graph.NodeID]float64, n)
	legPred := make([]map[graph.NodeID]map[graph.NodeID]graph.NodeID, n)
	for i, fragID := range chain {
		site := st.sites[fragID]
		var exits []graph.NodeID
		if i+1 < n {
			exits = st.fr.DisconnectionSet(fragID, chain[i+1])
		} else {
			exits = []graph.NodeID{target}
		}
		legDist[i] = make(map[graph.NodeID]map[graph.NodeID]float64)
		legPred[i] = make(map[graph.NodeID]map[graph.NodeID]graph.NodeID)
		next := make(map[graph.NodeID]float64)
		for entry, c0 := range costs[i] {
			dist, pred := site.augmented.ShortestPaths(entry)
			legDist[i][entry] = dist
			predTo := make(map[graph.NodeID]graph.NodeID, len(pred))
			for k, v := range pred {
				predTo[k] = v
			}
			legPred[i][entry] = predTo
			for _, x := range exits {
				d, ok := dist[x]
				if !ok && entry != x {
					continue
				}
				if entry == x {
					d = 0
				}
				if old, seen := next[x]; !seen || c0+d < old {
					next[x] = c0 + d
				}
			}
		}
		costs[i+1] = next
	}
	got, ok := costs[n][target]
	if !ok || math.Abs(got-totalCost) > eps*math.Max(1, math.Abs(totalCost)) {
		return nil, fmt.Errorf("dsa: path reconstruction cost %v disagrees with query cost %v", got, totalCost)
	}

	// Backward pass: pick, per leg, the entry node consistent with the
	// optimal total.
	hops := make([]hop, n)
	cur := target
	for i := n - 1; i >= 0; i-- {
		found := false
		for entry, c0 := range costs[i] {
			var d float64
			if entry == cur {
				d = 0
			} else if dd, ok := legDist[i][entry][cur]; ok {
				d = dd
			} else {
				continue
			}
			if math.Abs(c0+d-costs[i+1][cur]) <= eps*math.Max(1, math.Abs(costs[i+1][cur])) {
				hops[i] = hop{site: chain[i], from: entry, to: cur, legCost: d}
				cur = entry
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("dsa: path reconstruction lost the chain at leg %d", i)
		}
	}

	// Expand each hop into base-graph nodes.
	var nodes []graph.NodeID
	nodes = append(nodes, source)
	for i, h := range hops {
		if h.from == h.to {
			continue
		}
		dist := legDist[i][h.from]
		pred := legPred[i][h.from]
		local := graph.PathTo(h.from, h.to, dist, pred)
		if local == nil {
			return nil, fmt.Errorf("dsa: no local path %d→%d at site %d", h.from, h.to, h.site)
		}
		expanded, err := st.expandShortcuts(local, dist)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, expanded[1:]...)
	}
	return &Route{Nodes: nodes, Cost: totalCost}, nil
}

// expandShortcuts replaces hops of a site-local path that correspond to
// complementary shortcut edges with the underlying global path
// segment. A base edge u→v of exactly the hop's cost explains the hop
// whichever fragment owns it: if the search took a shortcut of that
// cost, the edge is a global segment just as cheap. Any other hop must
// have used a shortcut, and the global segment is recovered with a
// base-graph search restricted by the known cost (the preprocessing
// could store the segments instead; recomputing keeps CompInfo small
// and the reconstruction exact either way).
func (st *Store) expandShortcuts(local []graph.NodeID, dist map[graph.NodeID]float64) ([]graph.NodeID, error) {
	const eps = 1e-9
	base := st.fr.Base()
	out := []graph.NodeID{local[0]}
	for i := 0; i+1 < len(local); i++ {
		u, v := local[i], local[i+1]
		hopCost := dist[v] - dist[u]
		real := false
		for _, e := range base.Out(u) {
			if e.To == v && math.Abs(e.Weight-hopCost) <= eps*math.Max(1, e.Weight) {
				real = true
				break
			}
		}
		if real {
			out = append(out, v)
			continue
		}
		// Shortcut: recover the global segment.
		gdist, gpred := base.ShortestPaths(u)
		seg := graph.PathTo(u, v, gdist, gpred)
		if seg == nil {
			return nil, fmt.Errorf("dsa: cannot expand shortcut %d→%d", u, v)
		}
		if math.Abs(gdist[v]-hopCost) > eps*math.Max(1, hopCost) {
			return nil, fmt.Errorf("dsa: shortcut %d→%d cost drifted: %v vs %v", u, v, gdist[v], hopCost)
		}
		out = append(out, seg[1:]...)
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
