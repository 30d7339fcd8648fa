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
	"cmp"
	"fmt"
	"slices"
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
// value is not usable; use New. Its node records live in one slice,
// addressed by a dense index (the order nodes were added in) that one
// id → index map resolves; the only other numbering in the module is
// the rows of a CSR snapshot, ascending by id.
//
// Graph is not safe for concurrent mutation; concurrent reads are safe.
type Graph struct {
	nodes []node
	index map[NodeID]int32
	edges int
}

// node is everything the graph keeps per node: its id, its position
// and the edges leaving it. Each edge is stored once, in its tail's
// list; what needs edges by their head (the undirected readers) builds
// a CSR snapshot and reads that.
type node struct {
	id    NodeID
	coord Coord
	out   []Edge
}

// New returns an empty graph.
func New() *Graph { return NewWithCapacity(0) }

// NewWithCapacity returns an empty graph with the node table pre-sized
// for the given node count, so bulk builders (Subgraph, a
// fragmentation's Base) avoid the incremental growth of a
// node-at-a-time build.
// The hint is only a hint; the graph grows past it normally.
func NewWithCapacity(nodes int) *Graph {
	return &Graph{nodes: make([]node, 0, max(nodes, 0)), index: make(map[NodeID]int32, max(nodes, 0))}
}

// at returns the record of id, good until a node is added; for an id
// that is not a node, an empty record of nobody's.
func (g *Graph) at(id NodeID) *node {
	if i, ok := g.index[id]; ok {
		return &g.nodes[i]
	}
	return &node{}
}

// findOrAdd returns the record of id for writing, appending it when the
// node is new.
func (g *Graph) findOrAdd(id NodeID) *node {
	if i, ok := g.index[id]; ok {
		return &g.nodes[i]
	}
	g.index[id] = int32(len(g.nodes))
	g.nodes = append(g.nodes, node{id: id})
	return &g.nodes[len(g.nodes)-1]
}

// AddNode inserts (or repositions) a node with the given coordinates.
func (g *Graph) AddNode(id NodeID, c Coord) { g.findOrAdd(id).coord = c }

// HasNode reports whether id is a node of g.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.index[id]
	return ok
}

// Coord returns the coordinates of id. Nodes added implicitly by AddEdge
// have the zero coordinate until repositioned.
func (g *Graph) Coord(id NodeID) Coord { return g.at(id).coord }

// AddEdge inserts a directed edge. Unknown endpoints are added with zero
// coordinates. Parallel edges are permitted (the relational model allows
// duplicate connections with different weights); most callers avoid them.
func (g *Graph) AddEdge(e Edge) {
	from := g.findOrAdd(e.From)
	from.out = append(from.out, e)
	g.findOrAdd(e.To) // only now: adding a node can move the records
	g.edges++
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
	for _, e := range g.Out(from) {
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

// order returns the dense indices in ascending id order (the order
// generators and loaders add nodes in: the sort sees that).
func (g *Graph) order() []int32 {
	ord := make([]int32, len(g.nodes))
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(g.nodes[a].id, g.nodes[b].id) })
	return ord
}

// Nodes returns all node IDs in ascending order. The deterministic order
// keeps every downstream algorithm reproducible for a fixed seed.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, len(g.nodes))
	for i := range g.nodes {
		ids[i] = g.nodes[i].id
	}
	slices.Sort(ids)
	return ids
}

// Edges returns a copy of all edges, ordered by (From, To, Weight).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	// Nodes ascending: only each node's own short list is left to sort.
	for _, i := range g.order() {
		own := len(es)
		es = append(es, g.nodes[i].out...)
		slices.SortFunc(es[own:], byHead)
	}
	return es
}

// byHead orders one node's out-edges by (To, Weight).
func byHead(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.Weight, b.Weight))
}

// Out returns the outgoing edges of id. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Out(id NodeID) []Edge { return g.at(id).out }

// Subgraph returns the graph induced by the given edge set: it contains
// exactly those edges plus their endpoints (with coordinates copied from
// g). This is how a fragment R_i induces the subgraph G_i of the paper.
func (g *Graph) Subgraph(edges []Edge) *Graph {
	// Pre-size for the sparse-graph common case (average degree ≥ 2)
	// to skip most incremental growth on a path that runs once per
	// fragment per (re)build.
	s := NewWithCapacity(len(edges) / 2)
	for _, e := range edges {
		s.AddEdge(e)
	}
	for i := range s.nodes {
		s.nodes[i].coord = g.Coord(s.nodes[i].id)
	}
	return s
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d}", g.NumNodes(), g.NumEdges())
}
