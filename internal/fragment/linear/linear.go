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
	"maps"
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
	key := func(id graph.NodeID) (float64, float64) {
		c := g.Coord(id)
		if axis == YAxis {
			return c.Y, c.X
		}
		return c.X, c.Y
	}
	sort.SliceStable(ids, func(i, j int) bool {
		pi, si := key(ids[i])
		pj, sj := key(ids[j])
		if pi != pj {
			return pi < pj
		}
		if si != sj {
			return si < sj
		}
		return ids[i] < ids[j]
	})
	if s > len(ids) {
		s = len(ids)
	}
	return ids[:s]
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
	threshold := g.NumEdges() / opt.NumFragments
	if threshold < 1 {
		threshold = 1
	}

	remaining := make(map[graph.Edge]struct{}, g.NumEdges())
	incident := make(map[graph.NodeID][]graph.Edge)
	for _, e := range g.Edges() {
		remaining[e] = struct{}{}
		incident[e.From] = append(incident[e.From], e)
		if e.To != e.From {
			incident[e.To] = append(incident[e.To], e)
		}
	}

	startN := opt.StartNodes
	if len(startN) == 0 {
		startN = StartNodes(g, opt.StartCount, opt.Axis)
	}

	var sets [][]graph.Edge
	var boundaries [][]graph.NodeID
	for len(remaining) > 0 {
		var ek []graph.Edge
		vk := make(map[graph.NodeID]struct{})
		for len(ek) < threshold && len(remaining) > 0 {
			// new_e := edges adjacent to the current start_n.
			var newE []graph.Edge
			for _, s := range startN {
				for _, e := range incident[s] {
					if _, ok := remaining[e]; ok {
						delete(remaining, e)
						newE = append(newE, e)
					}
				}
			}
			if len(newE) == 0 {
				if len(remaining) == 0 {
					break
				}
				// Disconnected remainder: restart the sweep from the
				// smallest remaining node on the axis.
				startN = []graph.NodeID{restartNode(g, remaining, opt.Axis)}
				continue
			}
			// start_n := endpoints of new_e not already in V_k.
			nextSet := make(map[graph.NodeID]struct{})
			for _, e := range newE {
				for _, v := range [2]graph.NodeID{e.From, e.To} {
					if _, in := vk[v]; !in {
						if _, already := contains(startN, v); !already {
							nextSet[v] = struct{}{}
						}
					}
				}
			}
			// V_k grows by the swept start nodes and the new endpoints.
			for _, s := range startN {
				vk[s] = struct{}{}
			}
			for v := range nextSet {
				vk[v] = struct{}{}
			}
			// Hold the wave: the next start_n are the fresh endpoints
			// only (nodes whose incident edges have not been swept).
			startN = slices.Sorted(maps.Keys(nextSet))
			ek = append(ek, newE...)
		}
		if len(ek) > 0 {
			sets = append(sets, ek)
			boundaries = append(boundaries, append([]graph.NodeID(nil), startN...))
		}
	}
	if len(boundaries) > 0 {
		boundaries[len(boundaries)-1] = nil // last fragment has no successor
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		return nil, err
	}
	return &Result{Fragmentation: fr, Boundaries: boundaries}, nil
}

// contains reports whether ids contains v.
func contains(ids []graph.NodeID, v graph.NodeID) (int, bool) {
	for i, id := range ids {
		if id == v {
			return i, true
		}
	}
	return -1, false
}

// restartNode picks the remaining-edge endpoint with the smallest
// coordinate on the sweep axis (continuing the left-to-right scan).
func restartNode(g *graph.Graph, remaining map[graph.Edge]struct{}, axis Axis) graph.NodeID {
	var best graph.NodeID
	bestSet := false
	better := func(a, b graph.NodeID) bool {
		ca, cb := g.Coord(a), g.Coord(b)
		pa, pb := ca.X, cb.X
		sa, sb := ca.Y, cb.Y
		if axis == YAxis {
			pa, pb = ca.Y, cb.Y
			sa, sb = ca.X, cb.X
		}
		if pa != pb {
			return pa < pb
		}
		if sa != sb {
			return sa < sb
		}
		return a < b
	}
	for e := range remaining {
		for _, v := range [2]graph.NodeID{e.From, e.To} {
			if !bestSet || better(v, best) {
				best, bestSet = v, true
			}
		}
	}
	return best
}
