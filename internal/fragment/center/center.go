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
	"slices"

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

// The status score's attenuation factor a < 1 and its horizon, the
// paper's values.
const (
	statusA     = 0.5
	statusDepth = 3
)

// Options configures the algorithm.
type Options struct {
	// NumFragments is the number of centers and hence fragments ("may
	// depend on factors such as the number of processors available").
	NumFragments int
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
	candidates := g.TopByStatus(opt.CandidatePool, statusA, statusDepth)
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
	centers, err := SelectCenters(g, opt) // validates opt
	if err != nil {
		return nil, err
	}
	n := opt.NumFragments
	sw := fragment.NewSweep(g)

	// frags[k] lists fragment k's edge positions in claim order,
	// member[k] marks the rows of its node set, and frontier[k] holds
	// the rows whose incident edges have not been swept since they
	// joined.
	frags := make([][]int32, n)
	member := make([][]bool, n)
	frontier := make([][]int32, n)
	// joinEnds joins to fragment k the endpoints of its edges from
	// frags[k][from] on, and returns how many edges that is.
	joinEnds := func(k, from int) int {
		for _, p := range frags[k][from:] {
			for _, v := range sw.Ends(p) {
				if !member[k][v] {
					member[k][v] = true
					frontier[k] = append(frontier[k], v)
				}
			}
		}
		return len(frags[k]) - from
	}
	// take gives fragment k the remaining edges at row v.
	take := func(k int, v int32) int {
		from := len(frags[k])
		frags[k] = sw.Take(frags[k], v)
		return joinEnds(k, from)
	}

	// Initialisation: V_i := {c_i}; E_i := edges adjacent to c_i.
	// Edges adjacent to several centers go to the lowest-numbered
	// fragment (the pseudo-code's E := E \ ∪E_i implies some tie
	// resolution).
	for i, c := range centers {
		r := sw.Row(c)
		member[i] = make([]bool, len(sw.IDs))
		member[i][r], frontier[i] = true, []int32{r}
		take(i, r)
	}

	// grow adds to fragment k every remaining edge adjacent to its node
	// set (one "addition of edges — in fact, a relational join between
	// intermediate result and the relation modeling the graph").
	grow := func(k int) (added int) {
		sweep := frontier[k]
		frontier[k] = nil
		for _, v := range sweep {
			added += take(k, v)
		}
		return added
	}
	// reseed gives the smallest fragment the least remaining edge,
	// restarting growth in a disconnected region.
	reseed := func() {
		for p := range sw.Unclaimed() {
			k := smallest(frags)
			frags[k] = sw.Claim(frags[k], p)
			joinEnds(k, len(frags[k])-1)
			return
		}
	}

	switch opt.Variant {
	case RoundRobin:
		for sw.Left() > 0 {
			added := 0
			for k := range n {
				added += grow(k)
			}
			if added == 0 {
				reseed()
			}
		}
	case SmallestFirst:
		for sw.Left() > 0 {
			// The smallest fragment grows; if it cannot, the first other
			// that can; if none can, reseed.
			k, j := smallest(frags), 0
			if grow(k) == 0 {
				for j < n && (j == k || grow(j) == 0) {
					j++
				}
			}
			if j == n {
				reseed()
			}
		}
	default:
		return nil, fmt.Errorf("center: unknown variant %d", opt.Variant)
	}

	// Centers that sit adjacent to each other can leave a fragment
	// empty: all edges around its center were claimed by lower-numbered
	// fragments during initialisation, and growth never started. The
	// pseudo-code of Fig. 4 does not treat this; we restore the
	// requested fragment count by moving the last claimed edge of the
	// largest fragment, one at a time (a deviation from the paper — the
	// alternative, dropping the fragment, would silently reduce the
	// parallelism degree).
	for {
		empty := slices.IndexFunc(frags, func(ps []int32) bool { return len(ps) == 0 })
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

	return sw.Fragmentation(frags)
}

// smallest returns the index of the fragment with the fewest edges
// (lowest index on ties).
func smallest(frags [][]int32) int {
	best := 0
	for i := 1; i < len(frags); i++ {
		if len(frags[i]) < len(frags[best]) {
			best = i
		}
	}
	return best
}
