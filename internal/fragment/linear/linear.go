// Package linear implements the linear fragmentation algorithm of
// ICDE'93 §3.3 (Fig. 7), which "fragments a graph in such a way that
// the fragmentation graph is guaranteed to be acyclic (i.e., loosely
// connected)".
//
// The algorithm assumes topological information (node coordinates) and
// sweeps the graph from one extreme end to the other: it starts from a
// group of start nodes with the smallest x-coordinates, accumulates all
// edges adjacent to the current boundary wave by wave, and closes the
// fragment when its edge count reaches the threshold |E|/f; the nodes
// on the boundary at that moment form the disconnection set DS_k(k+1)
// and seed the next fragment. Disconnection sets may become large and
// fragment sizes unbalanced — that is the documented price of the
// acyclicity guarantee (Tables 1 and 3).
//
// The choice of start nodes matters (Fig. 8: sweeping a wide graph
// along its long axis gives smaller disconnection sets than across);
// Options.Axis and Options.StartNodes expose that choice.
package linear

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/fragment"
	"repro/internal/graph"
)

// Axis selects the sweep direction.
type Axis int

const (
	// XAxis starts from the nodes with the smallest x-coordinates (the
	// paper's choice: "we have chosen to start at the leftmost side").
	XAxis Axis = iota
	// YAxis starts from the smallest y-coordinates — the "starting at
	// the top and going down" alternative of Fig. 8.
	YAxis
)

// Options configures the algorithm.
type Options struct {
	// NumFragments is the f of the threshold |E|/f.
	NumFragments int
	// StartCount is the s of "s nodes with smallest x-coordinates".
	// Zero selects 1.
	StartCount int
	// Axis selects the sweep direction (ignored when StartNodes are
	// given).
	Axis Axis
	// StartNodes overrides start-node selection ("for actual
	// applications we might ask the user to provide us with the start
	// nodes").
	StartNodes []graph.NodeID
}

// withDefaults validates and fills defaults.
func (o Options) withDefaults(g *graph.Graph) (Options, error) {
	if o.NumFragments <= 0 {
		return o, fmt.Errorf("linear: NumFragments must be positive, got %d", o.NumFragments)
	}
	if g.NumEdges() == 0 {
		return o, fmt.Errorf("linear: graph has no edges")
	}
	if o.StartCount == 0 {
		o.StartCount = 1
	}
	if o.StartCount < 0 {
		return o, fmt.Errorf("linear: StartCount must be positive, got %d", o.StartCount)
	}
	if o.Axis != XAxis && o.Axis != YAxis {
		return o, fmt.Errorf("linear: unknown axis %d", o.Axis)
	}
	for _, s := range o.StartNodes {
		if !g.HasNode(s) {
			return o, fmt.Errorf("linear: start node %d not in graph", s)
		}
	}
	return o, nil
}

// StartNodes returns the s nodes of g with the smallest coordinate on
// the chosen axis (ties by the other axis, then by ID), the default
// start group of the algorithm.
func StartNodes(g *graph.Graph, s int, axis Axis) []graph.NodeID {
	ids := g.Nodes()
	sort.SliceStable(ids, func(i, j int) bool { return before(g, axis, ids[i], ids[j]) })
	return ids[:min(s, len(ids))]
}

// before orders the nodes of g along the axis: by the coordinate on
// it, then by the other coordinate, then by ID.
func before(g *graph.Graph, axis Axis, a, b graph.NodeID) bool {
	ca, cb := g.Coord(a), g.Coord(b)
	if axis == YAxis {
		ca.X, ca.Y, cb.X, cb.Y = ca.Y, ca.X, cb.Y, cb.X
	}
	if ca.X != cb.X {
		return ca.X < cb.X
	}
	if ca.Y != cb.Y {
		return ca.Y < cb.Y
	}
	return a < b
}

// Result carries the fragmentation together with the boundary sets the
// algorithm recorded — DS_k(k+1) in the paper's notation — which the
// tests check against the node-intersection definition.
type Result struct {
	Fragmentation *fragment.Fragmentation
	// Boundaries[k] is the start_n set recorded when fragment k was
	// closed (empty for the last fragment).
	Boundaries [][]graph.NodeID
}

// Fragment runs the linear fragmentation algorithm.
//
// Deviation from the pseudo-code, documented: if the boundary wave dies
// out (no adjacent edges remain) while edges are left — a disconnected
// remainder, which Fig. 7 does not treat — the sweep restarts within
// the current fragment from the remaining node with the smallest
// coordinate on the sweep axis, preserving both termination and the
// acyclicity invariant (the restart node has never been part of any
// fragment).
func Fragment(g *graph.Graph, opt Options) (*Result, error) {
	opt, err := opt.withDefaults(g)
	if err != nil {
		return nil, err
	}
	threshold := max(g.NumEdges()/opt.NumFragments, 1)

	sw := fragment.NewSweep(g)
	startIDs := opt.StartNodes
	if len(startIDs) == 0 {
		startIDs = StartNodes(g, opt.StartCount, opt.Axis)
	}
	// startN holds the rows of start_n; inV[r] holds k+1 once row r is
	// in V_k, the node set of fragment k.
	startN := make([]int32, len(startIDs))
	for i, id := range startIDs {
		startN[i] = sw.Row(id)
	}
	inV := make([]int, len(sw.IDs))

	var parts [][]int32
	var boundaries [][]graph.NodeID
	for sw.Left() > 0 {
		var ek []int32
		stamp := len(parts) + 1
		for len(ek) < threshold && sw.Left() > 0 {
			// new_e := edges adjacent to the current start_n.
			swept := len(ek)
			for _, r := range startN {
				ek = sw.Take(ek, r)
			}
			if len(ek) == swept {
				// Disconnected remainder: restart the sweep from the
				// smallest remaining node on the axis.
				startN = []int32{restartRow(sw, g, opt.Axis)}
				continue
			}
			// V_k grows by the swept start nodes and the endpoints of
			// new_e; the next start_n are the endpoints new to V_k only
			// (nodes whose incident edges have not been swept), rows
			// ascending.
			for _, r := range startN {
				inV[r] = stamp
			}
			next := startN[:0]
			for _, p := range ek[swept:] {
				for _, v := range sw.Ends(p) {
					if inV[v] != stamp {
						inV[v] = stamp
						next = append(next, v)
					}
				}
			}
			slices.Sort(next)
			startN = next
		}
		parts = append(parts, ek)
		boundary := make([]graph.NodeID, len(startN))
		for i, r := range startN {
			boundary[i] = sw.IDs[r]
		}
		boundaries = append(boundaries, boundary)
	}
	boundaries[len(boundaries)-1] = nil // last fragment has no successor
	fr, err := sw.Fragmentation(parts)
	if err != nil {
		return nil, err
	}
	return &Result{Fragmentation: fr, Boundaries: boundaries}, nil
}

// restartRow picks the endpoint of a remaining edge that comes first
// along the sweep axis (continuing the left-to-right scan).
func restartRow(sw *fragment.Sweep, g *graph.Graph, axis Axis) int32 {
	best := int32(-1)
	for p := range sw.Unclaimed() {
		for _, v := range sw.Ends(p) {
			if best < 0 || before(g, axis, sw.IDs[v], sw.IDs[best]) {
				best = v
			}
		}
	}
	return best
}
