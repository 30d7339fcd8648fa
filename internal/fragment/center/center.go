// Package center implements the center-based fragmentation algorithm of
// ICDE'93 §3.1 (Fig. 4), which "focuses on achieving a balanced
// workload": centers — gravity points of the graph selected by a status
// score (Hoede's social-network status, paper reference [9]) — seed the
// fragments, which then grow by repeatedly absorbing adjacent edges.
//
// Both scheduling variants of the paper are provided: RoundRobin (one
// edge-addition per fragment per turn, the variant shown in Fig. 4,
// balancing the number of additions and hence the fragment diameter)
// and SmallestFirst ("the fragment with the least number of edges is
// chosen for expansion until another fragment becomes the smallest",
// balancing the tuple count).
//
// Center selection likewise comes in the paper's two flavours: the
// original random choice among high-status candidates — which §4.2.1
// found can pick centers "quite close to each other", inflating
// disconnection sets — and the distributed-centers refinement that uses
// node coordinates to keep centers apart (Table 2).
package center

import (
	"fmt"
	"math/rand"

	"repro/internal/fragment"
	"repro/internal/graph"
)

// Variant selects the growth schedule.
type Variant int

const (
	// RoundRobin performs one edge addition per fragment in turn — the
	// Fig. 4 variant, balancing fragment diameters.
	RoundRobin Variant = iota
	// SmallestFirst always grows the fragment with the fewest edges —
	// the variant balancing fragment sizes (tuple counts).
	SmallestFirst
)

// Options configures the algorithm.
type Options struct {
	// NumFragments is the number of centers and hence fragments ("may
	// depend on factors such as the number of processors available").
	NumFragments int
	// A is the attenuation factor a < 1 of the status score. Zero
	// selects 0.5.
	A float64
	// Depth is the status-score horizon (the paper truncates at 3).
	// Zero selects 3.
	Depth int
	// CandidatePool is the size of the high-status candidate group
	// centers are drawn from. Zero selects 12·NumFragments (capped at
	// the node count): large enough that every region of the graph
	// contributes candidates, which the distributed refinement needs —
	// a pool that concentrates in the densest cluster leaves other
	// clusters centerless no matter how the pool is spread.
	CandidatePool int
	// Distributed enables the §4.2.1 refinement: centers are chosen
	// from the candidate pool greedily maximising their mutual
	// Euclidean distance instead of at random.
	Distributed bool
	// Variant selects the growth schedule.
	Variant Variant
	// Seed drives the random center choice (ignored when Distributed
	// is set or Centers are given).
	Seed int64
	// Centers overrides center selection entirely (the "application
	// semantics" case: one center per country of the railway network).
	Centers []graph.NodeID
}

// withDefaults validates and fills in defaults.
func (o Options) withDefaults(g *graph.Graph) (Options, error) {
	if o.NumFragments <= 0 {
		return o, fmt.Errorf("center: NumFragments must be positive, got %d", o.NumFragments)
	}
	if g.NumNodes() < o.NumFragments {
		return o, fmt.Errorf("center: graph has %d nodes, cannot seed %d fragments", g.NumNodes(), o.NumFragments)
	}
	if g.NumEdges() < o.NumFragments {
		return o, fmt.Errorf("center: graph has %d edges, cannot fill %d fragments", g.NumEdges(), o.NumFragments)
	}
	if o.A == 0 {
		o.A = 0.5
	}
	if o.A < 0 || o.A >= 1 {
		return o, fmt.Errorf("center: attenuation a must be in (0, 1), got %g", o.A)
	}
	if o.Depth == 0 {
		o.Depth = 3
	}
	if o.Depth < 0 {
		return o, fmt.Errorf("center: Depth must be non-negative, got %d", o.Depth)
	}
	if o.CandidatePool == 0 {
		o.CandidatePool = 12 * o.NumFragments
		if o.CandidatePool > g.NumNodes() {
			o.CandidatePool = g.NumNodes()
		}
	}
	if o.CandidatePool < o.NumFragments {
		return o, fmt.Errorf("center: CandidatePool %d smaller than NumFragments %d", o.CandidatePool, o.NumFragments)
	}
	if len(o.Centers) != 0 && len(o.Centers) != o.NumFragments {
		return o, fmt.Errorf("center: %d explicit centers given for %d fragments", len(o.Centers), o.NumFragments)
	}
	for _, c := range o.Centers {
		if !g.HasNode(c) {
			return o, fmt.Errorf("center: explicit center %d not in graph", c)
		}
	}
	return o, nil
}

// SelectCenters determines the centers per the configured strategy:
// explicit list, distributed (coordinate-spread) selection, or the
// original random draw from the high-status candidate pool.
func SelectCenters(g *graph.Graph, opt Options) ([]graph.NodeID, error) {
	opt, err := opt.withDefaults(g)
	if err != nil {
		return nil, err
	}
	if len(opt.Centers) > 0 {
		return append([]graph.NodeID(nil), opt.Centers...), nil
	}
	candidates := g.TopByStatus(opt.CandidatePool, opt.A, opt.Depth)
	if opt.Distributed {
		return spreadCenters(g, candidates, opt.NumFragments), nil
	}
	// Original behaviour: "select the centers at random from a group of
	// possible centers".
	rng := rand.New(rand.NewSource(opt.Seed))
	perm := rng.Perm(len(candidates))
	centers := make([]graph.NodeID, opt.NumFragments)
	for i := 0; i < opt.NumFragments; i++ {
		centers[i] = candidates[perm[i]]
	}
	return centers, nil
}

// spreadCenters picks n centers from the candidates (ordered best
// status first) greedily maximising the minimum pairwise Euclidean
// distance: the first candidate is the highest-status node, each
// subsequent pick is the candidate farthest from all already-chosen
// centers. This "makes sure that the selected nodes would not be too
// close together" (§4.2.1).
func spreadCenters(g *graph.Graph, candidates []graph.NodeID, n int) []graph.NodeID {
	centers := []graph.NodeID{candidates[0]}
	remaining := append([]graph.NodeID(nil), candidates[1:]...)
	for len(centers) < n {
		bestIdx, bestDist := -1, -1.0
		for i, c := range remaining {
			minD := -1.0
			for _, ch := range centers {
				d := g.EuclideanDistance(c, ch)
				if minD < 0 || d < minD {
					minD = d
				}
			}
			if minD > bestDist {
				bestDist, bestIdx = minD, i
			}
		}
		centers = append(centers, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return centers
}

// Fragment runs the center-based algorithm and returns the resulting
// fragmentation.
//
// Following Fig. 4: fragment i is initialised with center c_i and the
// edges adjacent to it; then fragments repeatedly absorb the remaining
// edges adjacent to their node sets, scheduled per the Variant. If a
// whole scheduling round adds no edge while edges remain (the rest of
// the graph is not adjacent to any fragment — possible for disconnected
// graphs, which the paper's pseudo-code does not treat), the smallest
// fragment is reseeded with an arbitrary remaining edge so the
// algorithm always terminates with a complete partition.
func Fragment(g *graph.Graph, opt Options) (*fragment.Fragmentation, error) {
	opt, err := opt.withDefaults(g)
	if err != nil {
		return nil, err
	}
	centers, err := SelectCenters(g, opt)
	if err != nil {
		return nil, err
	}
	n := opt.NumFragments

	// Remaining edges, with a per-node incidence index for fast
	// frontier expansion.
	remaining := make(map[graph.Edge]struct{}, g.NumEdges())
	incident := make(map[graph.NodeID][]graph.Edge)
	for _, e := range g.Edges() {
		remaining[e] = struct{}{}
		incident[e.From] = append(incident[e.From], e)
		if e.To != e.From {
			incident[e.To] = append(incident[e.To], e)
		}
	}

	frags := make([][]graph.Edge, n)
	nodes := make([]map[graph.NodeID]struct{}, n)
	for i := range nodes {
		nodes[i] = make(map[graph.NodeID]struct{})
	}
	// frontier tracks the nodes of fragment k whose incident edges have
	// not been swept since the node joined.
	frontier := make([][]graph.NodeID, n)

	claim := func(k int, e graph.Edge) {
		delete(remaining, e)
		frags[k] = append(frags[k], e)
		for _, v := range [2]graph.NodeID{e.From, e.To} {
			if _, ok := nodes[k][v]; !ok {
				nodes[k][v] = struct{}{}
				frontier[k] = append(frontier[k], v)
			}
		}
	}

	// Initialisation: V_i := {c_i}; E_i := edges adjacent to c_i.
	// Edges adjacent to several centers go to the lowest-numbered
	// fragment (the pseudo-code's E := E \ ∪E_i implies some tie
	// resolution).
	for i, c := range centers {
		nodes[i][c] = struct{}{}
		frontier[i] = append(frontier[i], c)
		for _, e := range incident[c] {
			if _, ok := remaining[e]; ok {
				claim(i, e)
			}
		}
	}

	// grow adds to fragment k every remaining edge adjacent to its node
	// set (one "addition of edges — in fact, a relational join between
	// intermediate result and the relation modeling the graph").
	grow := func(k int) int {
		added := 0
		sweep := frontier[k]
		frontier[k] = nil
		for _, v := range sweep {
			for _, e := range incident[v] {
				if _, ok := remaining[e]; ok {
					claim(k, e)
					added++
				}
			}
		}
		return added
	}

	switch opt.Variant {
	case RoundRobin:
		for len(remaining) > 0 {
			addedThisRound := 0
			for k := 0; k < n && len(remaining) > 0; k++ {
				addedThisRound += grow(k)
			}
			if addedThisRound == 0 && len(remaining) > 0 {
				reseed(frags, remaining, claim)
			}
		}
	case SmallestFirst:
		for len(remaining) > 0 {
			k := smallest(frags)
			if grow(k) == 0 {
				// The smallest fragment cannot grow; try the others
				// before reseeding.
				grew := false
				for j := 0; j < n && len(remaining) > 0; j++ {
					if j != k && grow(j) > 0 {
						grew = true
						break
					}
				}
				if !grew && len(remaining) > 0 {
					reseed(frags, remaining, claim)
				}
			}
		}
	default:
		return nil, fmt.Errorf("center: unknown variant %d", opt.Variant)
	}

	// Centers that sit adjacent to each other can leave a fragment
	// empty: all edges around its center were claimed by lower-numbered
	// fragments during initialisation, and growth never started. The
	// pseudo-code of Fig. 4 does not treat this; we restore the
	// requested fragment count by moving one edge at a time from the
	// largest fragment (a deviation from the paper — the alternative,
	// dropping the fragment, would silently reduce the parallelism
	// degree).
	for {
		empty := -1
		for i, fr := range frags {
			if len(fr) == 0 {
				empty = i
				break
			}
		}
		if empty < 0 {
			break
		}
		donor := 0
		for i := 1; i < n; i++ {
			if len(frags[i]) > len(frags[donor]) {
				donor = i
			}
		}
		if len(frags[donor]) < 2 {
			return nil, fmt.Errorf("center: cannot fill fragment %d: too few edges", empty)
		}
		last := len(frags[donor]) - 1
		frags[empty] = append(frags[empty], frags[donor][last])
		frags[donor] = frags[donor][:last]
	}

	return fragment.New(g, frags)
}

// smallest returns the index of the fragment with the fewest edges
// (lowest index on ties).
func smallest(frags [][]graph.Edge) int {
	best := 0
	for i := 1; i < len(frags); i++ {
		if len(frags[i]) < len(frags[best]) {
			best = i
		}
	}
	return best
}

// reseed assigns one arbitrary remaining edge (the smallest by edge
// order, for determinism) to the smallest fragment, restarting growth
// in a disconnected region.
func reseed(frags [][]graph.Edge, remaining map[graph.Edge]struct{},
	claim func(int, graph.Edge)) {
	var pick graph.Edge
	first := true
	for e := range remaining {
		if first || less(e, pick) {
			pick, first = e, false
		}
	}
	claim(smallest(frags), pick)
}

// less orders edges deterministically.
func less(a, b graph.Edge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return a.Weight < b.Weight
}
