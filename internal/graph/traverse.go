package graph

import (
	"container/heap"
	"math"
	"sort"
)

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// BFSLevels returns, for every node reachable from the sources by
// directed edges, its hop distance (level) from the nearest source.
// Sources themselves are at level 0.
func (g *Graph) BFSLevels(sources ...NodeID) map[NodeID]int {
	levels := make(map[NodeID]int)
	frontier := make([]NodeID, 0, len(sources))
	for _, s := range sources {
		if !g.HasNode(s) {
			continue
		}
		if _, seen := levels[s]; !seen {
			levels[s] = 0
			frontier = append(frontier, s)
		}
	}
	for depth := 1; len(frontier) > 0; depth++ {
		var next []NodeID
		for _, u := range frontier {
			for _, e := range g.nodes[u].out {
				if _, seen := levels[e.To]; !seen {
					levels[e.To] = depth
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return levels
}

// UndirectedBFSLevels is BFSLevels over the underlying undirected graph
// (edges traversable in both directions). The center-based algorithm's
// status score and the generator's cluster checks use undirected
// distances, matching the symmetric transportation networks of the paper.
func (g *Graph) UndirectedBFSLevels(sources ...NodeID) map[NodeID]int {
	levels := make(map[NodeID]int)
	frontier := make([]NodeID, 0, len(sources))
	for _, s := range sources {
		if !g.HasNode(s) {
			continue
		}
		if _, seen := levels[s]; !seen {
			levels[s] = 0
			frontier = append(frontier, s)
		}
	}
	for depth := 1; len(frontier) > 0; depth++ {
		var next []NodeID
		for _, u := range frontier {
			for n := range g.undirectedNeighbors(u) {
				if _, seen := levels[n]; !seen {
					levels[n] = depth
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return levels
}

// Reachable returns the set of nodes reachable from the sources by
// directed edges, including the sources.
func (g *Graph) Reachable(sources ...NodeID) map[NodeID]struct{} {
	set := make(map[NodeID]struct{})
	for id := range g.BFSLevels(sources...) {
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
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// pqItem is an entry of the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap of pqItem ordered by dist.
type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPaths runs Dijkstra from source over the directed edges and
// returns the distance and predecessor maps. Nodes absent from the
// distance map are unreachable. Negative weights are not supported (the
// paper's path problems are cost networks with non-negative costs).
func (g *Graph) ShortestPaths(source NodeID) (dist map[NodeID]float64, pred map[NodeID]NodeID) {
	dist = make(map[NodeID]float64)
	pred = make(map[NodeID]NodeID)
	if !g.HasNode(source) {
		return dist, pred
	}
	dist[source] = 0
	q := &pq{{node: source, dist: 0}}
	done := make(map[NodeID]struct{})
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if _, ok := done[it.node]; ok {
			continue
		}
		done[it.node] = struct{}{}
		for _, e := range g.nodes[it.node].out {
			nd := it.dist + e.Weight
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				pred[e.To] = it.node
				heap.Push(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	return dist, pred
}

// ShortestPathsMulti runs Dijkstra from a set of sources with given
// initial costs: dist[v] = min over sources s of (seed[s] + d(s, v)).
// It is the primitive behind pipelined chain evaluation, where the
// running cost vector of the previous fragments seeds the next
// fragment's search.
func (g *Graph) ShortestPathsMulti(seeds map[NodeID]float64) (dist map[NodeID]float64, pred map[NodeID]NodeID) {
	dist = make(map[NodeID]float64)
	pred = make(map[NodeID]NodeID)
	q := &pq{}
	for s, c := range seeds {
		if !g.HasNode(s) || c < 0 {
			continue
		}
		if old, ok := dist[s]; !ok || c < old {
			dist[s] = c
		}
	}
	for s, c := range dist {
		heap.Push(q, pqItem{node: s, dist: c})
	}
	done := make(map[NodeID]struct{})
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if _, ok := done[it.node]; ok {
			continue
		}
		if it.dist > dist[it.node] {
			continue
		}
		done[it.node] = struct{}{}
		for _, e := range g.nodes[it.node].out {
			nd := it.dist + e.Weight
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				pred[e.To] = it.node
				heap.Push(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	return dist, pred
}

// Distance returns the shortest-path cost from 'from' to 'to', or Inf if
// unreachable.
func (g *Graph) Distance(from, to NodeID) float64 {
	dist, _ := g.ShortestPaths(from)
	if d, ok := dist[to]; ok {
		return d
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
	for _, s := range g.Nodes() {
		for _, lvl := range g.BFSLevels(s) {
			if lvl > maxHops {
				maxHops = lvl
			}
		}
	}
	return maxHops
}

// EuclideanDistance returns the planar distance between the coordinates
// of two nodes; it is the d(p, q) of the generator's probability
// function P(p,q) = (c1/n²)·e^(−c2·d(p,q)) (§4.1).
func (g *Graph) EuclideanDistance(p, q NodeID) float64 {
	cp, cq := g.nodes[p].coord, g.nodes[q].coord
	dx, dy := cp.X-cq.X, cp.Y-cq.Y
	return math.Sqrt(dx*dx + dy*dy)
}
