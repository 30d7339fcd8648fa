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
	coords map[NodeID]Coord
	out    map[NodeID][]Edge
	in     map[NodeID][]Edge
	edges  int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		coords: make(map[NodeID]Coord),
		out:    make(map[NodeID][]Edge),
		in:     make(map[NodeID][]Edge),
	}
}

// NewWithCapacity returns an empty graph with the node maps pre-sized
// for the given node count, so bulk loaders (the binary snapshot
// store) avoid the incremental map growth of a node-at-a-time build.
// The hint is only a hint; the graph grows past it normally.
func NewWithCapacity(nodes int) *Graph {
	if nodes < 0 {
		nodes = 0
	}
	return &Graph{
		coords: make(map[NodeID]Coord, nodes),
		out:    make(map[NodeID][]Edge, nodes),
		in:     make(map[NodeID][]Edge, nodes),
	}
}

// AddNode inserts (or repositions) a node with the given coordinates.
func (g *Graph) AddNode(id NodeID, c Coord) {
	if _, ok := g.coords[id]; !ok {
		g.out[id] = nil
		g.in[id] = nil
	}
	g.coords[id] = c
}

// HasNode reports whether id is a node of g.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.coords[id]
	return ok
}

// Coord returns the coordinates of id. Nodes added implicitly by AddEdge
// have the zero coordinate until repositioned.
func (g *Graph) Coord(id NodeID) Coord { return g.coords[id] }

// AddEdge inserts a directed edge. Unknown endpoints are added with zero
// coordinates. Parallel edges are permitted (the relational model allows
// duplicate connections with different weights); most callers avoid them.
func (g *Graph) AddEdge(e Edge) {
	if !g.HasNode(e.From) {
		g.AddNode(e.From, Coord{})
	}
	if !g.HasNode(e.To) {
		g.AddNode(e.To, Coord{})
	}
	g.out[e.From] = append(g.out[e.From], e)
	g.in[e.To] = append(g.in[e.To], e)
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
	out, ok := withoutEdge(g.out[e.From], e)
	if !ok {
		return false
	}
	g.out[e.From] = out
	g.in[e.To], _ = withoutEdge(g.in[e.To], e)
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
// a fixed handful of map writes per node instead of two map appends
// per edge. The caller guarantees id is not already a node, that both
// endpoints of every edge are (or will be) installed, and that the
// global out/in multisets agree. The slices are adopted, not copied;
// they may share backing arrays with other graphs, which is safe
// because nothing in this package mutates an installed adjacency list
// in place (updates rebuild copy-on-write) — callers clamp shared
// slices (s[:len:len]) so a later append reallocates.
func (g *Graph) InstallNode(id NodeID, c Coord, out, in []Edge) {
	g.coords[id] = c
	if len(out) > 0 {
		g.out[id] = out
	}
	if len(in) > 0 {
		g.in[id] = in
	}
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
	for _, e := range g.out[from] {
		if e.To == to {
			return true
		}
	}
	return false
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.coords) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns all node IDs in ascending order. The deterministic order
// keeps every downstream algorithm reproducible for a fixed seed.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.coords))
	for id := range g.coords {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Edges returns a copy of all edges, ordered by (From, To, Weight).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	for _, id := range g.Nodes() {
		es = append(es, g.out[id]...)
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
func (g *Graph) Out(id NodeID) []Edge { return g.out[id] }

// In returns the incoming edges of id. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) In(id NodeID) []Edge { return g.in[id] }

// OutDegree returns the number of outgoing edges of id.
func (g *Graph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns the number of incoming edges of id.
func (g *Graph) InDegree(id NodeID) int { return len(g.in[id]) }

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
	nbs := make(map[NodeID]struct{})
	for _, e := range g.out[id] {
		if e.To != id {
			nbs[e.To] = struct{}{}
		}
	}
	for _, e := range g.in[id] {
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

// Clone returns a deep copy of g. Adjacency lists are copied
// wholesale (one allocation per node, not one map operation per edge),
// so cloning is cheap enough for the hot construction paths — the
// per-site augmented graphs and the snapshot restore.
func (g *Graph) Clone() *Graph {
	c := NewWithCapacity(len(g.coords))
	for id, co := range g.coords {
		c.coords[id] = co
	}
	for id, es := range g.out {
		c.out[id] = append([]Edge(nil), es...)
	}
	for id, es := range g.in {
		c.in[id] = append([]Edge(nil), es...)
	}
	c.edges = g.edges
	return c
}

// CloneShared returns a graph equal to g whose adjacency lists share
// g's backing arrays, each clamped to its length so a later AddEdge on
// the clone reallocates instead of writing into the shared array. This
// is the cheap base for overlay graphs (the per-site augmented search
// graphs) that add a few edges on top of a large shared body; like
// every graph, the clone's installed lists must never be edited in
// place.
func (g *Graph) CloneShared() *Graph {
	c := NewWithCapacity(len(g.coords))
	for id, co := range g.coords {
		c.coords[id] = co
	}
	for id, es := range g.out {
		c.out[id] = es[:len(es):len(es)]
	}
	for id, es := range g.in {
		c.in[id] = es[:len(es):len(es)]
	}
	c.edges = g.edges
	return c
}

// Subgraph returns the graph induced by the given edge set: it contains
// exactly those edges plus their endpoints (with coordinates copied from
// g). This is how a fragment R_i induces the subgraph G_i of the paper.
func (g *Graph) Subgraph(edges []Edge) *Graph {
	// Pre-size for the sparse-graph common case (average degree ≥ 2)
	// to skip most incremental map growth, and write the maps directly
	// — endpoint re-validation per edge would double the map traffic
	// on a path that runs once per fragment per (re)build.
	s := NewWithCapacity(len(edges) / 2)
	for _, e := range edges {
		s.coords[e.From] = g.coords[e.From]
		s.coords[e.To] = g.coords[e.To]
		s.out[e.From] = append(s.out[e.From], e)
		s.in[e.To] = append(s.in[e.To], e)
	}
	s.edges = len(edges)
	return s
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d}", g.NumNodes(), g.NumEdges())
}
