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
	"maps"
	"slices"
	"sync/atomic"
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
// Graph is not safe for concurrent mutation; concurrent reads are safe,
// and CloneShared counts as a read. The disconnection set approach
// never mutates a graph after construction, so per-site goroutines
// share fragment graphs freely.
type Graph struct {
	nodes []node
	// A graph and its CloneShared clones read one index map until one
	// of them adds a node; indexShared tells that one to copy it first.
	index       map[NodeID]int32
	indexShared atomic.Bool
	edges       int
}

// node is everything the graph keeps per node: its id, its position
// and the edges leaving and entering it.
type node struct {
	id      NodeID
	coord   Coord
	out, in []Edge
}

// New returns an empty graph.
func New() *Graph { return NewWithCapacity(0) }

// NewWithCapacity returns an empty graph with the node table pre-sized
// for the given node count, so bulk loaders (the binary snapshot
// store) avoid the incremental growth of a node-at-a-time build.
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
// node is new — after copying an index map that is still shared.
func (g *Graph) findOrAdd(id NodeID) *node {
	if i, ok := g.index[id]; ok {
		return &g.nodes[i]
	}
	if g.indexShared.Load() {
		g.index = maps.Clone(g.index)
		g.indexShared.Store(false)
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
	// Look the head up only after the tail is stored: adding it can move
	// the records, and a self-loop edits one record twice.
	to := g.findOrAdd(e.To)
	to.in = append(to.in, e)
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
	from := g.at(e.From)
	out, ok := withoutEdge(from.out, e)
	if !ok {
		return false
	}
	from.out = out
	to := g.at(e.To)
	to.in, _ = withoutEdge(to.in, e)
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
// one record appended per node instead of two list appends per edge.
// The caller guarantees id is not already a node, that both endpoints
// of every edge are (or will be) installed, and that the global out/in
// multisets agree. The slices are adopted, not copied;
// they may share backing arrays with other graphs, which is safe
// because nothing in this package mutates an installed adjacency list
// in place (updates rebuild copy-on-write) — callers clamp shared
// slices (s[:len:len]) so a later append reallocates.
func (g *Graph) InstallNode(id NodeID, c Coord, out, in []Edge) {
	n := g.findOrAdd(id)
	n.coord, n.out, n.in = c, out, in
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
		slices.SortFunc(es[own:], func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.Weight, b.Weight))
		})
	}
	return es
}

// Out returns the outgoing edges of id. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Out(id NodeID) []Edge { return g.at(id).out }

// In returns the incoming edges of id. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) In(id NodeID) []Edge { return g.at(id).in }

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
	n := g.at(id)
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
	slices.Sort(ids)
	return ids
}

// CloneShared returns a graph equal to g whose adjacency lists share
// g's backing arrays, each clamped to its length so a later AddEdge on
// the clone reallocates instead of writing into the shared array. It is
// the one way to copy a graph: the incremental write path clones the
// base graph and replays a batch's edits on the clone, which then owns
// the touched endpoints' lists and shares the rest; like every graph,
// the clone's installed lists must never be edited in place.
//
// The clone is one copy of the record slice and hashes no node: it
// reads g's id → index map, which whichever of the two first adds a
// node copies before writing (the write path's edge edits never do).
// All it stores in g is the atomic "map is shared" mark, so a graph
// being searched can be cloned.
func (g *Graph) CloneShared() *Graph {
	c := &Graph{nodes: make([]node, len(g.nodes)), index: g.index, edges: g.edges}
	for i, n := range g.nodes {
		n.out, n.in = slices.Clip(n.out), slices.Clip(n.in)
		c.nodes[i] = n
	}
	if !g.indexShared.Load() {
		g.indexShared.Store(true)
	}
	c.indexShared.Store(true)
	return c
}

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
