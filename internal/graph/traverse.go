package graph

import (
	"math"
	"slices"
)

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// CSR is a snapshot of a graph's edges in index form, the module's one
// compressed-sparse-row adjacency: row k is node IDs[k] (ascending, as
// Nodes()), its out-edges To[Off[k]:Off[k+1]] with weights W, in the
// order Out lists them, every head already resolved to its row. The
// searches, the SCC pass and the kernels of package tc all read it.
// Read-only once built, so goroutines share it; stale once the graph is
// edited.
type CSR struct {
	IDs []NodeID
	Off []int32
	To  []int32
	W   []float64
}

// CSR snapshots g's out-edges: one id → index lookup per edge here,
// none in what reads the snapshot.
func (g *Graph) CSR() *CSR { return g.csr(false) }

// csr is CSR, with each node's in-edges (reversed) in its row too when
// undirected is set.
func (g *Graph) csr(undirected bool) *CSR {
	ord := g.order()
	c := &CSR{
		IDs: make([]NodeID, len(ord)),
		Off: make([]int32, len(ord)+1),
		To:  make([]int32, 0, g.edges),
		W:   make([]float64, 0, g.edges),
	}
	row := make([]int32, len(ord)) // dense index → row
	for k, i := range ord {
		row[i], c.IDs[k] = int32(k), g.nodes[i].id
	}
	add := func(id NodeID, w float64) {
		if j, ok := g.index[id]; ok {
			c.To, c.W = append(c.To, row[j]), append(c.W, w)
		}
	}
	for k, i := range ord {
		for _, e := range g.nodes[i].out {
			add(e.To, e.Weight)
		}
		if undirected {
			for _, e := range g.nodes[i].in {
				add(e.From, e.Weight)
			}
		}
		c.Off[k+1] = int32(len(c.To))
	}
	return c
}

// Row returns the row of id, and whether id is a node of the snapshot.
func (c *CSR) Row(id NodeID) (int32, bool) {
	k, ok := slices.BinarySearch(c.IDs, id)
	return int32(k), ok
}

// searcher runs searches over one snapshot on rows it reuses: dist[k]
// is the cost (or level) of ids[k], Inf when the last search did not
// reach it; pred[k] the row it was reached from, -1 for a seed.
type searcher struct {
	csr     *CSR
	dist    []float64
	pred    []int32
	done    []bool
	heap    []heapItem
	reached int
}

type heapItem struct {
	dist float64
	row  int32
}

func newSearcher(c *CSR) *searcher {
	n := len(c.IDs)
	return &searcher{csr: c, dist: make([]float64, n), pred: make([]int32, n), done: make([]bool, n)}
}

// search forgets the previous search and runs one from the seeds: by
// cost (Dijkstra), or by level over unit weights when hops is set.
// Seeds that are not nodes or have a negative cost are ignored.
func (s *searcher) search(hops bool, seeds map[NodeID]float64) {
	for k := range s.dist {
		s.dist[k], s.pred[k] = Inf, -1
	}
	clear(s.done)
	s.heap, s.reached = s.heap[:0], 0
	for id, cost := range seeds {
		if k, ok := s.csr.Row(id); ok && cost >= 0 && cost < Inf {
			s.dist[k] = cost
			s.push(heapItem{cost, k})
		}
	}
	// Unit weights reach rows in level order: there the queue is the
	// slice read front to back; otherwise a heap, which pop shrinks.
	c := s.csr
	for head := 0; head < len(s.heap); {
		var it heapItem
		if hops {
			it, head = s.heap[head], head+1
		} else {
			it = s.pop()
		}
		u := it.row
		if s.done[u] || it.dist > s.dist[u] {
			continue
		}
		s.done[u] = true
		s.reached++
		for j := c.Off[u]; j < c.Off[u+1]; j++ {
			v, nd := c.To[j], it.dist+1
			if !hops {
				nd = it.dist + c.W[j]
			}
			if nd < s.dist[v] {
				s.dist[v], s.pred[v] = nd, u
				if hops {
					s.heap = append(s.heap, heapItem{nd, v})
				} else {
					s.push(heapItem{nd, v})
				}
			}
		}
	}
}

// push and pop are container/heap's binary min-heap on dist, typed: the
// same sifts, so equal-cost entries leave in the order they always did
// and predecessor trees — hence reconstructed routes — do not move.
func (s *searcher) push(it heapItem) {
	s.heap = append(s.heap, it)
	j := len(s.heap) - 1
	for i := (j - 1) / 2; j > 0 && it.dist < s.heap[i].dist; i = (j - 1) / 2 {
		s.heap[j], j = s.heap[i], i
	}
	s.heap[j] = it
}

func (s *searcher) pop() heapItem {
	h, n := s.heap, len(s.heap)-1
	top, it := h[0], h[n]
	i := 0
	for j := 1; j < n; j = 2*i + 1 {
		if j+1 < n && h[j+1].dist < h[j].dist {
			j++
		}
		if !(h[j].dist < it.dist) {
			break
		}
		h[i], i = h[j], j
	}
	h[i] = it
	s.heap = h[:n]
	return top
}

// Searches returns n single-source search functions over g as it is
// now: CSR().Searches(n).
func (g *Graph) Searches(n int) []func(src NodeID, hops bool) (nodes []NodeID, dist []float64, pred []int32) {
	return g.CSR().Searches(n)
}

// Searches returns n single-source search functions over the snapshot,
// one for each goroutine that wants to search: each owns the rows it
// returns. A search runs from src — Dijkstra over the edge weights, or
// breadth-first over hop counts when hops is set — and returns nodes,
// the snapshot's IDs; dist[k], the cost (hop count) from src to
// nodes[k], Inf when there is no path; and pred[k], the row nodes[k]
// was reached from, -1 for src and unreached nodes. The rows are
// read-only and good until that function's next call: no search
// allocates, where ShortestPaths builds two maps.
func (c *CSR) Searches(n int) []func(src NodeID, hops bool) (nodes []NodeID, dist []float64, pred []int32) {
	searches := make([]func(NodeID, bool) ([]NodeID, []float64, []int32), n)
	for i := range searches {
		s := newSearcher(c)
		searches[i] = func(src NodeID, hops bool) ([]NodeID, []float64, []int32) {
			s.search(hops, map[NodeID]float64{src: 0})
			return c.IDs, s.dist, s.pred
		}
	}
	return searches
}

// BFSLevels returns, for every node reachable from the sources by
// directed edges, its hop distance (level) from the nearest source.
// Sources themselves are at level 0.
func (g *Graph) BFSLevels(sources ...NodeID) map[NodeID]int {
	return g.bfsLevels(false, sources)
}

// UndirectedBFSLevels is BFSLevels over the underlying undirected graph
// (edges traversable in both directions). The center-based algorithm's
// status score and the generator's cluster checks use undirected
// distances, matching the symmetric transportation networks of the paper.
func (g *Graph) UndirectedBFSLevels(sources ...NodeID) map[NodeID]int {
	return g.bfsLevels(true, sources)
}

func (g *Graph) bfsLevels(undirected bool, sources []NodeID) map[NodeID]int {
	seeds := make(map[NodeID]float64, len(sources))
	for _, id := range sources {
		seeds[id] = 0
	}
	s := newSearcher(g.csr(undirected))
	s.search(true, seeds)
	levels := make(map[NodeID]int, s.reached)
	for k, d := range s.dist {
		if d < Inf {
			levels[s.csr.IDs[k]] = int(d)
		}
	}
	return levels
}

// Reachable returns the set of nodes reachable from the sources by
// directed edges, including the sources.
func (g *Graph) Reachable(sources ...NodeID) map[NodeID]struct{} {
	levels := g.BFSLevels(sources...)
	set := make(map[NodeID]struct{}, len(levels))
	for id := range levels {
		set[id] = struct{}{}
	}
	return set
}

// ConnectedComponents returns the weakly connected components of g, each
// as an ascending slice of node IDs; components are ordered by their
// smallest member.
func (g *Graph) ConnectedComponents() [][]NodeID {
	seen := make(map[NodeID]struct{})
	var comps [][]NodeID
	for _, start := range g.Nodes() {
		if _, ok := seen[start]; ok {
			continue
		}
		var comp []NodeID
		stack := []NodeID{start}
		seen[start] = struct{}{}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for n := range g.undirectedNeighbors(u) {
				if _, ok := seen[n]; !ok {
					seen[n] = struct{}{}
					stack = append(stack, n)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// ShortestPaths runs Dijkstra from source over the directed edges and
// returns the distance and predecessor maps. Nodes absent from the
// distance map are unreachable. Negative weights are not supported (the
// paper's path problems are cost networks with non-negative costs).
func (g *Graph) ShortestPaths(source NodeID) (dist map[NodeID]float64, pred map[NodeID]NodeID) {
	return g.ShortestPathsMulti(map[NodeID]float64{source: 0})
}

// ShortestPathsMulti is CSR().ShortestPathsMulti(seeds).
func (g *Graph) ShortestPathsMulti(seeds map[NodeID]float64) (dist map[NodeID]float64, pred map[NodeID]NodeID) {
	return g.CSR().ShortestPathsMulti(seeds)
}

// ShortestPathsMulti runs Dijkstra from a set of sources with given
// initial costs: dist[v] = min over sources s of (seed[s] + d(s, v)).
// Seeds that are not nodes or have a negative cost are ignored. It is
// the primitive behind pipelined chain evaluation, where the running
// cost vector of the previous fragments seeds the next fragment's
// search.
func (c *CSR) ShortestPathsMulti(seeds map[NodeID]float64) (dist map[NodeID]float64, pred map[NodeID]NodeID) {
	s := newSearcher(c)
	s.search(false, seeds)
	dist, pred = make(map[NodeID]float64, s.reached), make(map[NodeID]NodeID, s.reached)
	for k, d := range s.dist {
		if d < Inf {
			dist[c.IDs[k]] = d
			if p := s.pred[k]; p >= 0 {
				pred[c.IDs[k]] = c.IDs[p]
			}
		}
	}
	return dist, pred
}

// Distance returns the shortest-path cost from 'from' to 'to', or Inf if
// unreachable.
func (g *Graph) Distance(from, to NodeID) float64 {
	nodes, dist, _ := g.Searches(1)[0](from, false)
	if k, ok := slices.BinarySearch(nodes, to); ok {
		return dist[k]
	}
	return Inf
}

// PathTo reconstructs the node sequence of a shortest path from the
// predecessor map returned by ShortestPaths. It returns nil if 'to' was
// unreachable.
func PathTo(source, to NodeID, dist map[NodeID]float64, pred map[NodeID]NodeID) []NodeID {
	if _, ok := dist[to]; !ok {
		return nil
	}
	var rev []NodeID
	for cur := to; ; {
		rev = append(rev, cur)
		if cur == source {
			break
		}
		p, ok := pred[cur]
		if !ok {
			return nil
		}
		cur = p
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Diameter returns the longest shortest path in hops over directed
// edges, ignoring unreachable pairs ("the number of edges constituting
// the longest path", §2.2). The empty graph has diameter 0.
//
// This is the quantity that bounds the number of iterations of a
// semi-naive transitive-closure fixpoint, which is why fragment diameter
// drives the workload estimate of the center-based algorithm.
func (g *Graph) Diameter() int {
	maxHops := 0
	search := g.Searches(1)
	for _, src := range g.Nodes() {
		_, levels, _ := search[0](src, true)
		for _, lvl := range levels {
			if lvl < Inf && int(lvl) > maxHops {
				maxHops = int(lvl)
			}
		}
	}
	return maxHops
}

// EuclideanDistance returns the planar distance between the coordinates
// of two nodes; it is the d(p, q) of the generator's probability
// function P(p,q) = (c1/n²)·e^(−c2·d(p,q)) (§4.1).
func (g *Graph) EuclideanDistance(p, q NodeID) float64 {
	cp, cq := g.Coord(p), g.Coord(q)
	dx, dy := cp.X-cq.X, cp.Y-cq.Y
	return math.Sqrt(dx*dx + dy*dy)
}
