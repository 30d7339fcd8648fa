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
func (g *Graph) CSR() *CSR {
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
	for k, i := range ord {
		for _, e := range g.nodes[i].out {
			if j, ok := g.index[e.To]; ok {
				c.To, c.W = append(c.To, row[j]), append(c.W, e.Weight)
			}
		}
		c.Off[k+1] = int32(len(c.To))
	}
	return c
}

// Undirected returns the snapshot's underlying simple undirected graph,
// the one index every undirected reader (status scores, undirected
// levels, weakly connected components) walks: row k lists the distinct
// rows joined to row k by an edge in either direction, ascending, k
// itself left out, each at weight 1.
func (c *CSR) Undirected() *CSR {
	// Each edge u→v, u ≠ v, as the keys of u→v and v→u: sorted, they
	// are the rows in order, each ascending, repeats side by side.
	keys := make([]int64, 0, 2*len(c.To))
	for u := range c.IDs {
		for _, v := range c.To[c.Off[u]:c.Off[u+1]] {
			if v != int32(u) {
				keys = append(keys, int64(u)<<32|int64(v), int64(v)<<32|int64(u))
			}
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	n := len(c.IDs)
	und := &CSR{IDs: c.IDs, Off: make([]int32, n+1), To: make([]int32, len(keys)), W: make([]float64, len(keys))}
	for j, key := range keys {
		und.Off[key>>32+1]++
		und.To[j], und.W[j] = int32(key), 1
	}
	for k := range n {
		und.Off[k+1] += und.Off[k]
	}
	return und
}

// NewCSR builds the CSR of the graph whose nodes are ids — ascending
// and distinct, adopted as the snapshot's IDs — and whose edges are
// those of the runs, without building that graph: row k holds the
// edges leaving ids[k] in the order the runs list them, as Graph.CSR
// would after an AddEdge per edge in that order. An edge with an
// endpoint outside ids is left out. Each endpoint is resolved once, by
// RowOf; a tail that repeats the previous edge's is not resolved again.
func NewCSR(ids []NodeID, runs ...[]Edge) *CSR {
	row := func(id NodeID) int32 {
		if k, ok := RowOf(ids, id); ok {
			return int32(k)
		}
		return -1
	}
	m := 0
	for _, r := range runs {
		m += len(r)
	}
	// ends holds each edge's tail and head rows, -1 outside ids.
	ends := make([]int32, 0, 2*m)
	c := &CSR{IDs: ids, Off: make([]int32, len(ids)+1)}
	from, u := NodeID(0), row(0)
	for _, r := range runs {
		for _, e := range r {
			if e.From != from {
				from, u = e.From, row(e.From)
			}
			v := row(e.To)
			if ends = append(ends, u, v); u >= 0 && v >= 0 {
				c.Off[u+1]++
			}
		}
	}
	for k := range ids {
		c.Off[k+1] += c.Off[k]
	}
	c.To, c.W = make([]int32, c.Off[len(ids)]), make([]float64, c.Off[len(ids)])
	next, i := slices.Clone(c.Off[:len(ids)]), 0
	for _, r := range runs {
		for _, e := range r {
			if u, v := ends[i], ends[i+1]; u >= 0 && v >= 0 {
				c.To[next[u]], c.W[next[u]] = v, e.Weight
				next[u]++
			}
			i += 2
		}
	}
	return c
}

// Edges returns a copy of the snapshot's edges, ordered by (From, To,
// Weight) as Graph.Edges orders them.
func (c *CSR) Edges() []Edge {
	es := make([]Edge, 0, len(c.To))
	for k, id := range c.IDs {
		for j := c.Off[k]; j < c.Off[k+1]; j++ {
			es = append(es, Edge{From: id, To: c.IDs[c.To[j]], Weight: c.W[j]})
		}
		slices.SortFunc(es[c.Off[k]:], byHead)
	}
	return es
}

// Row returns the row of id, and whether id is a node of the snapshot.
func (c *CSR) Row(id NodeID) (int32, bool) {
	k, ok := RowOf(c.IDs, id)
	return int32(k), ok
}

// RowOf returns the index of id in ids, ascending and distinct, and
// whether id is there; if not, the index it would be inserted at. Since
// ids[k] ≥ ids[0]+k, id can sit no later than k = id−ids[0]: it probes
// ids[k], which holds id whenever the ids up to it are dense, and
// otherwise binary-searches up to k.
func RowOf(ids []NodeID, id NodeID) (int, bool) {
	if len(ids) == 0 || id < ids[0] {
		return 0, false
	}
	k := int(min(uint(id)-uint(ids[0]), uint(len(ids)-1)))
	if ids[k] == id {
		return k, true
	}
	return slices.BinarySearch(ids[:k+1], id)
}

// searcher runs searches over one snapshot on rows it reuses: dist[k]
// is the cost (or level) of ids[k], Inf when the last search did not
// reach it; pred[k] the row it was reached from, -1 for a seed. stop
// marks the rows the current search may stop at (nil until a search
// is given any) and left counts the marked rows not yet popped final.
// touched lists the rows the last search reached, the only ones whose
// dist, pred and done it wrote.
type searcher struct {
	csr     *CSR
	dist    []float64
	pred    []int32
	done    []bool
	stop    []bool
	left    int
	heap    []heapItem
	touched []int32
}

type heapItem struct {
	dist float64
	row  int32
}

// newSearcher returns a searcher over c whose dist row is dist.
func newSearcher(c *CSR, dist []float64) *searcher {
	n := len(c.IDs)
	return &searcher{csr: c, dist: dist, pred: make([]int32, n), done: make([]bool, n)}
}

// search runs one search, on a new searcher, from the seed row that
// dist holds: every row at a finite, non-negative cost is a seed at
// that cost, the rest — +Inf, negative, NaN — become Inf. Seeds are
// pushed in ascending row order, so ties between seeds resolve the
// same way on every call.
func (s *searcher) search(hops bool) {
	for k, cost := range s.dist {
		s.pred[k] = -1
		if cost >= 0 && cost < Inf {
			s.push(heapItem{cost, int32(k)})
		} else {
			s.dist[k] = Inf
		}
	}
	s.run(hops)
}

// run drains the queue the seeds are on: by cost (Dijkstra), or by
// level over unit weights when hops is set, adding each row it reaches
// to touched. With left stop rows marked, it returns as soon as the
// last of them is popped final, before relaxing its edges: what it has
// done by then is the first operations of the whole search, so every
// row popped so far holds the whole search's dist and pred, bit for
// bit (by cost, when no weight is negative: Dijkstra's own assumption).
func (s *searcher) run(hops bool) {
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
		if s.left > 0 && s.stop[u] {
			if s.left--; s.left == 0 {
				return
			}
		}
		for j := c.Off[u]; j < c.Off[u+1]; j++ {
			v, nd := c.To[j], it.dist+1
			if !hops {
				nd = it.dist + c.W[j]
			}
			if nd < s.dist[v] {
				if s.dist[v] == Inf {
					s.touched = append(s.touched, v)
				}
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

// A Search is one single-source search function of Searches.
type Search func(src NodeID, hops bool, stop []NodeID) (nodes []NodeID, dist []float64, pred []int32)

// Searches returns n single-source search functions over g as it is
// now: CSR().Searches(n).
func (g *Graph) Searches(n int) []Search {
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
//
// A nil (or empty) stop asks for the whole row. Otherwise the search
// returns once every node of stop that is in the snapshot has been
// popped final (repeats and nodes outside the snapshot are ignored;
// with none inside, the whole row is searched). The cells of those
// nodes, and of every node popped before them, are bit-equal to the
// whole search's; the other cells are tentative — a cost that may
// still fall, or Inf for a node the search had not reached yet.
//
// A search resets only the cells the previous one reached, so one that
// stops early costs what it searched, not the snapshot's size.
func (c *CSR) Searches(n int) []Search {
	searches := make([]Search, n)
	for i := range searches {
		s := newSearcher(c, slices.Repeat([]float64{Inf}, len(c.IDs)))
		for k := range s.pred {
			s.pred[k] = -1
		}
		searches[i] = func(src NodeID, hops bool, stop []NodeID) ([]NodeID, []float64, []int32) {
			for _, k := range s.touched {
				s.dist[k], s.pred[k], s.done[k] = Inf, -1, false
			}
			s.touched, s.heap = s.touched[:0], s.heap[:0]
			if k, ok := c.Row(src); ok {
				s.dist[k] = 0
				s.touched = append(s.touched, k)
				s.heap = append(s.heap, heapItem{0, k})
			}
			s.mark(stop, true)
			s.run(hops)
			s.mark(stop, false)
			return c.IDs, s.dist, s.pred
		}
	}
	return searches
}

// mark sets (on) or clears the stop marks of the rows of stop's nodes
// in the snapshot, counting each distinct row set in left; clearing
// zeroes left. The stop row is allocated by the first search given one.
func (s *searcher) mark(stop []NodeID, on bool) {
	if len(stop) > 0 && s.stop == nil {
		s.stop = make([]bool, len(s.csr.IDs))
	}
	for _, id := range stop {
		if k, ok := s.csr.Row(id); ok && s.stop[k] != on {
			s.stop[k] = on
			if on {
				s.left++
			}
		}
	}
	if !on {
		s.left = 0
	}
}

// BFSLevels returns, for every node reachable from the sources by
// directed edges, its hop distance (level) from the nearest source.
// Sources themselves are at level 0.
func (g *Graph) BFSLevels(sources ...NodeID) map[NodeID]int {
	c := g.CSR()
	s := newSearcher(c, slices.Repeat([]float64{Inf}, len(c.IDs)))
	for _, id := range sources {
		if k, ok := c.Row(id); ok {
			s.dist[k] = 0
		}
	}
	s.search(true)
	levels := make(map[NodeID]int)
	for k, d := range s.dist {
		if d < Inf {
			levels[c.IDs[k]] = int(d)
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
	u := g.CSR().Undirected()
	rows := u.Components()
	comps := make([][]NodeID, len(rows))
	for i, comp := range rows {
		slices.Sort(comp)
		comps[i] = make([]NodeID, len(comp))
		for j, r := range comp {
			comps[i][j] = u.IDs[r]
		}
	}
	return comps
}

// Components splits the rows of an undirected snapshot (see
// Undirected) into its connected components, ordered by their smallest
// row. Each lists its rows in the order a depth-first walk from that
// row visits them, a row's neighbours pushed in ascending order.
func (c *CSR) Components() [][]int32 {
	seen := make([]bool, len(c.IDs))
	var comps [][]int32
	for start := range c.IDs {
		if seen[start] {
			continue
		}
		var comp []int32
		stack := []int32{int32(start)}
		seen[start] = true
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, r)
			for _, v := range c.To[c.Off[r]:c.Off[r+1]] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// ShortestPaths runs Dijkstra from source over the directed edges and
// returns the distance and predecessor maps, read from one Searches
// row. Nodes absent from the distance map are unreachable. Negative
// weights are not supported (the paper's path problems are cost
// networks with non-negative costs).
func (g *Graph) ShortestPaths(source NodeID) (dist map[NodeID]float64, pred map[NodeID]NodeID) {
	nodes, d, p := g.Searches(1)[0](source, false, nil)
	dist, pred = make(map[NodeID]float64), make(map[NodeID]NodeID)
	for k, c := range d {
		if c < Inf {
			dist[nodes[k]] = c
			if p[k] >= 0 {
				pred[nodes[k]] = nodes[p[k]]
			}
		}
	}
	return dist, pred
}

// SeededSearch runs Dijkstra from every row of seed at its cost there:
// dist[v] = min over seed rows s of seed[s] + d(s, v). seed is a
// distance row over the snapshot, one cell per row; +Inf marks a row
// that is not a seed, and negative or non-finite costs are ignored as
// well. The search runs in place: dist is seed, now every row's cost,
// +Inf where unreached; pred[k] is the row k was reached from, -1 for
// unreached rows and for seeds no other seed undercuts. Seeds are
// pushed in ascending row order, so a tie between seeds resolves the
// same way on every call. It is the primitive behind pipelined chain
// evaluation, where the exits the previous leg reached seed the next
// site's search.
func (c *CSR) SeededSearch(seed []float64) (dist []float64, pred []int32) {
	s := newSearcher(c, seed)
	s.search(false)
	return s.dist, s.pred
}

// Distance returns the shortest-path cost from 'from' to 'to', or Inf if
// unreachable. Its search stops once 'to' is settled.
func (g *Graph) Distance(from, to NodeID) float64 {
	nodes, dist, _ := g.Searches(1)[0](from, false, []NodeID{to})
	if k, ok := slices.BinarySearch(nodes, to); ok {
		return dist[k]
	}
	return Inf
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
		_, levels, _ := search[0](src, true, nil)
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
