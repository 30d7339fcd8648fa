// Package phe implements parallel hierarchical evaluation, the
// extension of the disconnection set approach the ICDE'93 paper points
// to in §5 (developed in Houtsma, Cacace and Ceri, PDIS'91, paper
// reference [12]): when the fragmentation graph "becomes very complex
// and contains many routes from one fragment to another", chain
// enumeration explodes; PHE avoids it with a designated 'high-speed
// network' — "a separate fragment that mandatorily has to be traversed
// when going to a non-adjacent fragment".
//
// Routing becomes trivial: same fragment → one site; adjacent fragments
// → the two-fragment chain; anything else → source fragment, highway,
// target fragment. When the highway is the only inter-cluster glue (the
// SplitByCluster construction), the fragmentation graph is a star —
// acyclic — and answers remain exact; when clusters are also directly
// interconnected, PHE trades the exhaustive chain search for a bounded
// plan whose answer is an upper bound realised by an actual path.
package phe

import (
	"context"
	"fmt"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/graph"
)

// Hierarchy wraps a disconnection-set store with a designated
// high-speed fragment.
type Hierarchy struct {
	store   *dsa.Store
	highway int
}

// New builds a hierarchy over store with the given fragment as the
// high-speed network. Every other fragment should share a disconnection
// set with the highway for full routability; fragments that do not are
// reachable only as same-fragment or directly adjacent queries.
func New(store *dsa.Store, highway int) (*Hierarchy, error) {
	if store == nil {
		return nil, fmt.Errorf("phe: nil store")
	}
	n := store.Fragmentation().NumFragments()
	if highway < 0 || highway >= n {
		return nil, fmt.Errorf("phe: highway fragment %d out of range [0, %d)", highway, n)
	}
	return &Hierarchy{store: store, highway: highway}, nil
}

// Store returns the wrapped store.
func (h *Hierarchy) Store() *dsa.Store { return h.store }

// Highway returns the high-speed fragment ID.
func (h *Hierarchy) Highway() int { return h.highway }

// Coverage reports how many non-highway fragments share a disconnection
// set with the highway, out of the total number of non-highway
// fragments.
func (h *Hierarchy) Coverage() (connected, total int) {
	fr := h.store.Fragmentation()
	for i := 0; i < fr.NumFragments(); i++ {
		if i == h.highway {
			continue
		}
		total++
		if len(fr.DisconnectionSet(i, h.highway)) > 0 {
			connected++
		}
	}
	return connected, total
}

// Chains computes the hierarchical routes for a query: per (source
// fragment, target fragment) pair — same fragment, direct adjacency, or
// via the highway. The result never exceeds |frags(source)|·|frags(target)|
// chains of length ≤ 3, independent of the fragmentation graph's
// complexity.
func (h *Hierarchy) Chains(source, target graph.NodeID) ([][]int, error) {
	fr := h.store.Fragmentation()
	srcFrags := fr.FragmentsOf(source)
	dstFrags := fr.FragmentsOf(target)
	if len(srcFrags) == 0 {
		return nil, fmt.Errorf("phe: source node %d is isolated", source)
	}
	if len(dstFrags) == 0 {
		return nil, fmt.Errorf("phe: target node %d is isolated", target)
	}
	seen := make(map[string]struct{})
	var chains [][]int
	add := func(c []int) {
		k := fmt.Sprint(c)
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		chains = append(chains, c)
	}
	for _, fs := range srcFrags {
		for _, ft := range dstFrags {
			switch {
			case fs == ft:
				add([]int{fs})
			case len(fr.DisconnectionSet(fs, ft)) > 0:
				add([]int{fs, ft})
			case fs == h.highway && len(fr.DisconnectionSet(h.highway, ft)) > 0:
				add([]int{h.highway, ft})
			case ft == h.highway && len(fr.DisconnectionSet(fs, h.highway)) > 0:
				add([]int{fs, h.highway})
			case len(fr.DisconnectionSet(fs, h.highway)) > 0 && len(fr.DisconnectionSet(h.highway, ft)) > 0:
				add([]int{fs, h.highway, ft})
			}
		}
	}
	return chains, nil
}

// Query answers a shortest-path query with hierarchical routing,
// executing per-site legs in parallel.
func (h *Hierarchy) Query(ctx context.Context, source, target graph.NodeID, engine dsa.Engine) (*dsa.Result, error) {
	if dsa.ValidEngine(engine) && !engine.CostCapable() {
		return nil, fmt.Errorf("phe: %w: engine %v computes connectivity only; use Connected", dsa.ErrEngineMismatch, engine)
	}
	chains, err := h.Chains(source, target)
	if err != nil {
		return nil, err
	}
	if len(chains) == 0 {
		// No hierarchical route: the chainless plan is exactly the
		// unreachable-under-PHE result.
		res, _ := h.store.PlanResult(&dsa.Plan{Source: source, Target: target})
		return res, nil
	}
	return h.runChains(ctx, source, target, chains, engine)
}

// Connected reports whether target is reachable from source along the
// hierarchical routes, with any local engine — including the
// connectivity-only dsa.EngineBitset, whose per-leg facts carry
// presence markers instead of costs. Like Query, the answer is exact
// when the highway is the only inter-cluster glue.
func (h *Hierarchy) Connected(ctx context.Context, source, target graph.NodeID, engine dsa.Engine) (bool, error) {
	chains, err := h.Chains(source, target)
	if err != nil {
		return false, err
	}
	if len(chains) == 0 {
		return false, nil
	}
	res, err := h.runChains(ctx, source, target, chains, engine)
	if err != nil {
		return false, err
	}
	return res.Reachable, nil
}

// QueryNamed is Query with the engine given by name (anything
// dsa.ParseEngine accepts) — the bridge for callers that stay free of
// internal/dsa imports, like the tcquery CLI handing over a
// planner-resolved engine.
func (h *Hierarchy) QueryNamed(ctx context.Context, source, target graph.NodeID, engine string) (*dsa.Result, error) {
	eng, err := dsa.ParseEngine(engine)
	if err != nil {
		return nil, err
	}
	return h.Query(ctx, source, target, eng)
}

// ConnectedNamed is Connected with the engine given by name — see
// QueryNamed.
func (h *Hierarchy) ConnectedNamed(ctx context.Context, source, target graph.NodeID, engine string) (bool, error) {
	eng, err := dsa.ParseEngine(engine)
	if err != nil {
		return false, err
	}
	return h.Connected(ctx, source, target, eng)
}

// runChains plans the given hierarchical chains and executes them with
// per-site legs in parallel — the shared back half of Query and
// Connected.
func (h *Hierarchy) runChains(ctx context.Context, source, target graph.NodeID, chains [][]int, engine dsa.Engine) (*dsa.Result, error) {
	plan, err := h.store.PlanChains(source, target, chains)
	if err != nil {
		return nil, err
	}
	return h.store.RunPlanCtx(ctx, plan, engine)
}

// SplitByCluster builds the canonical hierarchical fragmentation of a
// transportation graph: intra-cluster edges form one fragment per
// cluster and every inter-cluster edge goes into the high-speed
// fragment (the paper's image of "local train networks per region and
// fast intercity trains connecting the regions"). clusterOf assigns
// each node to its cluster in [0, clusters). The returned highway index
// is the last fragment. Clusters with no internal edges are skipped;
// an error is returned if there are no inter-cluster edges to form the
// highway.
func SplitByCluster(g *graph.Graph, clusters int, clusterOf func(graph.NodeID) int) (*fragment.Fragmentation, int, error) {
	if clusters <= 0 {
		return nil, 0, fmt.Errorf("phe: clusters must be positive, got %d", clusters)
	}
	sets := make([][]graph.Edge, clusters)
	var highway []graph.Edge
	for _, e := range g.Edges() {
		cf, ct := clusterOf(e.From), clusterOf(e.To)
		if cf < 0 || cf >= clusters || ct < 0 || ct >= clusters {
			return nil, 0, fmt.Errorf("phe: clusterOf out of range for edge %v (%d, %d)", e, cf, ct)
		}
		if cf == ct {
			sets[cf] = append(sets[cf], e)
		} else {
			highway = append(highway, e)
		}
	}
	if len(highway) == 0 {
		return nil, 0, fmt.Errorf("phe: no inter-cluster edges to form the high-speed fragment")
	}
	var nonEmpty [][]graph.Edge
	for _, s := range sets {
		if len(s) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	nonEmpty = append(nonEmpty, highway)
	fr, err := fragment.New(g, nonEmpty)
	if err != nil {
		return nil, 0, err
	}
	return fr, fr.NumFragments() - 1, nil
}
