// Package graph provides the directed weighted graph substrate used
// throughout the reproduction of Houtsma, Apers and Schipper,
// "Data fragmentation for parallel transitive closure strategies"
// (ICDE 1993).
//
// The paper models a connection network as a relation R whose tuples are
// the edges of a directed graph, possibly with an associated weight, and
// whose nodes carry coordinates (used both by the graph generator of §4.1
// and by the topology-aware fragmentation algorithms of §3). This package
// supplies that graph: nodes with (x, y) coordinates, weighted directed
// edges, and the traversal and metric algorithms the fragmentation and
// transitive-closure layers are built on.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node of a graph. IDs are opaque to the algorithms;
// the generator assigns consecutive integers but nothing relies on that.
type NodeID int

// Coord is the planar position of a node. The ICDE'93 generator spreads
// coordinates evenly over an interval (§4.1) and the linear fragmentation
// algorithm (§3.3) and the distributed-centers variant (§4.2.1) consume
// them.
type Coord struct {
	X, Y float64
}

// Edge is a directed weighted edge; it corresponds to one tuple of the
// base relation R of the paper ("each tuple represents an edge of the
// graph, possibly with an associated weight").
type Edge struct {
	From   NodeID
	To     NodeID
	Weight float64
}

// Reverse returns the edge with endpoints swapped and the same weight.
func (e Edge) Reverse() Edge { return Edge{From: e.To, To: e.From, Weight: e.Weight} }

// Graph is a directed weighted graph with node coordinates. The zero
// value is not usable; use New.
//
// Graph is not safe for concurrent mutation; concurrent reads are safe.
// The disconnection set approach never mutates a graph after
// construction, so per-site goroutines share fragment graphs freely.
type Graph struct {
	nodes map[NodeID]node
	edges int
}

// node is everything the graph keeps per node: its position and the
// edges leaving and entering it.
type node struct {
	coord   Coord
	out, in []Edge
}

// New returns an empty graph.
func New() *Graph { return NewWithCapacity(0) }

// NewWithCapacity returns an empty graph with the node table pre-sized
// for the given node count, so bulk loaders (the binary snapshot
// store) avoid the incremental map growth of a node-at-a-time build.
// The hint is only a hint; the graph grows past it normally.
func NewWithCapacity(nodes int) *Graph {
	return &Graph{nodes: make(map[NodeID]node, max(nodes, 0))}
}

// AddNode inserts (or repositions) a node with the given coordinates.
func (g *Graph) AddNode(id NodeID, c Coord) {
	n := g.nodes[id]
	n.coord = c
	g.nodes[id] = n
}

// HasNode reports whether id is a node of g.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.nodes[id]
	return ok
}

// Coord returns the coordinates of id. Nodes added implicitly by AddEdge
// have the zero coordinate until repositioned.
func (g *Graph) Coord(id NodeID) Coord { return g.nodes[id].coord }

// AddEdge inserts a directed edge. Unknown endpoints are added with zero
// coordinates. Parallel edges are permitted (the relational model allows
// duplicate connections with different weights); most callers avoid them.
func (g *Graph) AddEdge(e Edge) {
	from := g.nodes[e.From]
	from.out = append(from.out, e)
	g.nodes[e.From] = from
	// Read the head only after the tail is stored: a self-loop edits one
	// entry twice.
	to := g.nodes[e.To]
	to.in = append(to.in, e)
	g.nodes[e.To] = to
	g.edges++
}

// RemoveEdge deletes one occurrence of an exactly matching edge and
// reports whether there was one. The two adjacency lists it shortens
// are replaced by fresh copies, never edited in place, so on a
// CloneShared clone the graph it was cloned from keeps every list it
// had — with AddEdge (whose append reallocates a clamped list) this is
// the copy-on-write edge edit the incremental write path is built on:
// a clone plus k edits costs the clone plus the touched endpoints'
// lists, and shares everything else.
func (g *Graph) RemoveEdge(e Edge) bool {
	from := g.nodes[e.From]
	out, ok := withoutEdge(from.out, e)
	if !ok {
		return false
	}
	from.out = out
	g.nodes[e.From] = from
	to := g.nodes[e.To]
	to.in, _ = withoutEdge(to.in, e)
	g.nodes[e.To] = to
	g.edges--
	return true
}

// withoutEdge returns a copy of es lacking the first occurrence of e,
// and whether e occurred.
func withoutEdge(es []Edge, e Edge) ([]Edge, bool) {
	i := slices.Index(es, e)
	if i < 0 {
		return es, false
	}
	return slices.Concat(es[:i], es[i+1:]), true
}

// InstallNode adds node id with coordinates c and its complete
// adjacency in one shot: out holds every edge leaving id, in every
// edge entering it. This is the bulk path for loaders and site
// builders that bucket an edge volume into contiguous per-node runs —
// one map write per node instead of two map appends per edge. The
// caller guarantees id is not already a node, that both endpoints of
// every edge are (or will be) installed, and that the global out/in
// multisets agree. The slices are adopted, not copied;
// they may share backing arrays with other graphs, which is safe
// because nothing in this package mutates an installed adjacency list
// in place (updates rebuild copy-on-write) — callers clamp shared
// slices (s[:len:len]) so a later append reallocates.
func (g *Graph) InstallNode(id NodeID, c Coord, out, in []Edge) {
	g.nodes[id] = node{coord: c, out: out, in: in}
	g.edges += len(out)
}

// AddBoth inserts the edge and its reverse: transportation networks
// (railways, roads) are symmetric, and the paper's example graphs are
// connection networks traversable in both directions.
func (g *Graph) AddBoth(e Edge) {
	g.AddEdge(e)
	g.AddEdge(e.Reverse())
}

// HasEdge reports whether at least one edge from 'from' to 'to' exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	for _, e := range g.nodes[from].out {
		if e.To == to {
			return true
		}
	}
	return false
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns all node IDs in ascending order. The deterministic order
// keeps every downstream algorithm reproducible for a fixed seed.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Edges returns a copy of all edges, ordered by (From, To, Weight).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	for _, id := range g.Nodes() {
		es = append(es, g.nodes[id].out...)
	}
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Weight < b.Weight
	})
	return es
}

// Out returns the outgoing edges of id. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Out(id NodeID) []Edge { return g.nodes[id].out }

// In returns the incoming edges of id. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) In(id NodeID) []Edge { return g.nodes[id].in }

// Grade returns the grade of a node in the paper's sense (§3.1): the
// number of edges adjacent to it. For the symmetric graphs the paper
// studies this equals the undirected degree; for general directed graphs
// we count distinct neighbours reachable by either an in- or out-edge.
func (g *Graph) Grade(id NodeID) int {
	return len(g.undirectedNeighbors(id))
}

// undirectedNeighbors returns the set of nodes adjacent to id by an edge
// in either direction, excluding id itself (self-loops contribute no
// neighbour).
func (g *Graph) undirectedNeighbors(id NodeID) map[NodeID]struct{} {
	n := g.nodes[id]
	nbs := make(map[NodeID]struct{})
	for _, e := range n.out {
		if e.To != id {
			nbs[e.To] = struct{}{}
		}
	}
	for _, e := range n.in {
		if e.From != id {
			nbs[e.From] = struct{}{}
		}
	}
	return nbs
}

// Neighbors returns the distinct undirected neighbours of id in ascending
// order.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	set := g.undirectedNeighbors(id)
	ids := make([]NodeID, 0, len(set))
	for n := range set {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CloneShared returns a graph equal to g whose adjacency lists share
// g's backing arrays, each clamped to its length so a later AddEdge on
// the clone reallocates instead of writing into the shared array. It is
// the one way to copy a graph: the incremental write path clones the
// base graph and replays a batch's edits on the clone, which then owns
// the touched endpoints' lists and shares the rest; like every graph,
// the clone's installed lists must never be edited in place.
func (g *Graph) CloneShared() *Graph {
	c := NewWithCapacity(len(g.nodes))
	for id, n := range g.nodes {
		n.out, n.in = slices.Clip(n.out), slices.Clip(n.in)
		c.nodes[id] = n
	}
	c.edges = g.edges
	return c
}

// Subgraph returns the graph induced by the given edge set: it contains
// exactly those edges plus their endpoints (with coordinates copied from
// g). This is how a fragment R_i induces the subgraph G_i of the paper.
func (g *Graph) Subgraph(edges []Edge) *Graph {
	// Pre-size for the sparse-graph common case (average degree ≥ 2)
	// to skip most incremental map growth on a path that runs once per
	// fragment per (re)build.
	s := NewWithCapacity(len(edges) / 2)
	for _, e := range edges {
		s.AddEdge(e)
	}
	for id, n := range s.nodes {
		n.coord = g.nodes[id].coord
		s.nodes[id] = n
	}
	return s
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d}", g.NumNodes(), g.NumEdges())
}
