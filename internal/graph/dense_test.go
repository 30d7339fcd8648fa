package graph_test

// The dense node numbering under Graph is invisible: these tests hold
// the slice-and-index graph against a plain map-of-lists model,
// and the index-addressed searches against the map-based ones they
// replaced (kept below as the reference), using only the exported API.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// model is the reference graph: per node a position and the
// out-edges, in insertion order.
type model struct {
	coord map[graph.NodeID]graph.Coord
	out   map[graph.NodeID][]graph.Edge
	edges int
}

func newModel() *model {
	return &model{coord: map[graph.NodeID]graph.Coord{}, out: map[graph.NodeID][]graph.Edge{}}
}

func (m *model) addNode(id graph.NodeID, c graph.Coord) { m.coord[id] = c }

func (m *model) touch(id graph.NodeID) {
	if _, ok := m.coord[id]; !ok {
		m.coord[id] = graph.Coord{}
	}
}

func (m *model) addEdge(e graph.Edge) {
	m.touch(e.From)
	m.touch(e.To)
	m.out[e.From] = append(m.out[e.From], e)
	m.edges++
}

// check reports how g differs from m through every exported reader.
func (m *model) check(g *graph.Graph) error {
	if g.NumNodes() != len(m.coord) || g.NumEdges() != m.edges {
		return fmt.Errorf("%v, want %d nodes and %d edges", g, len(m.coord), m.edges)
	}
	var ids []graph.NodeID
	for id := range m.coord {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if got := g.Nodes(); !slices.Equal(got, ids) {
		return fmt.Errorf("Nodes() = %v, want %v", got, ids)
	}
	var edges []graph.Edge
	for _, id := range ids {
		if !g.HasNode(id) || g.Coord(id) != m.coord[id] {
			return fmt.Errorf("node %d: HasNode %v at %+v, want %+v", id, g.HasNode(id), g.Coord(id), m.coord[id])
		}
		if !slices.Equal(g.Out(id), m.out[id]) {
			return fmt.Errorf("node %d: Out %v, want %v", id, g.Out(id), m.out[id])
		}
		edges = append(edges, m.out[id]...)
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		if a.To != b.To {
			return int(a.To - b.To)
		}
		switch {
		case a.Weight < b.Weight:
			return -1
		case a.Weight > b.Weight:
			return 1
		}
		return 0
	})
	if got := g.Edges(); !slices.Equal(got, edges) {
		return fmt.Errorf("Edges() = %v, want %v", got, edges)
	}
	if absent := graph.NodeID(-7); g.HasNode(absent) || g.Out(absent) != nil || g.Coord(absent) != (graph.Coord{}) {
		return fmt.Errorf("absent node %d is visible", absent)
	}
	return nil
}

// TestModelInterleavedEditsAndClones applies random interleavings of
// AddNode and AddEdge to a graph — nodes added explicitly, implicitly
// by an edge, and repositioned — and after every step the graph must
// equal its model through every exported reader.
func TestModelInterleavedEditsAndClones(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, m := graph.New(), newModel()
		pickNode := func() graph.NodeID { return graph.NodeID(rng.Intn(40) * 7 % 41) }
		for step := 0; step < 300; step++ {
			if rng.Intn(10) < 3 {
				id, c := pickNode(), graph.Coord{X: rng.Float64(), Y: rng.Float64()}
				g.AddNode(id, c)
				m.addNode(id, c)
			} else {
				// few distinct weights, so parallel edges are common;
				// self-loops too
				e := graph.Edge{From: pickNode(), To: pickNode(), Weight: float64(rng.Intn(3))}
				g.AddEdge(e)
				m.addEdge(e)
			}
			if err := m.check(g); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// ---- the retired map-based searches, verbatim but for reading
// adjacency through Out: the reference the dense ones must equal ----

type pqItem struct {
	node graph.NodeID
	dist float64
}

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

func refBFSLevels(g *graph.Graph, sources ...graph.NodeID) map[graph.NodeID]int {
	levels := make(map[graph.NodeID]int)
	frontier := make([]graph.NodeID, 0, len(sources))
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
		var next []graph.NodeID
		for _, u := range frontier {
			for _, e := range g.Out(u) {
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

func refShortestPaths(g *graph.Graph, source graph.NodeID) (dist map[graph.NodeID]float64, pred map[graph.NodeID]graph.NodeID) {
	dist = make(map[graph.NodeID]float64)
	pred = make(map[graph.NodeID]graph.NodeID)
	if !g.HasNode(source) {
		return dist, pred
	}
	dist[source] = 0
	q := &pq{{node: source, dist: 0}}
	done := make(map[graph.NodeID]struct{})
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if _, ok := done[it.node]; ok {
			continue
		}
		done[it.node] = struct{}{}
		for _, e := range g.Out(it.node) {
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

func refShortestPathsMulti(g *graph.Graph, seeds map[graph.NodeID]float64) (dist map[graph.NodeID]float64, pred map[graph.NodeID]graph.NodeID) {
	dist = make(map[graph.NodeID]float64)
	pred = make(map[graph.NodeID]graph.NodeID)
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
	done := make(map[graph.NodeID]struct{})
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if _, ok := done[it.node]; ok {
			continue
		}
		if it.dist > dist[it.node] {
			continue
		}
		done[it.node] = struct{}{}
		for _, e := range g.Out(it.node) {
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

// searchCorpus is one graph per generator plus random graphs with
// everything the generators avoid: sparse ids added out of order,
// parallel edges, self-loops, zero weights, isolated and unreachable
// nodes.
func searchCorpus(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	corpus := map[string]*graph.Graph{"empty": graph.New()}
	must := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		corpus[name] = g
	}
	g, err := gen.General(gen.Defaults(60, 1))
	must("general", g, err)
	g, err = gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.Defaults(25, 2)})
	must("transportation", g, err)
	g, err = gen.Grid(gen.GridConfig{Width: 12, Height: 9, DiagonalProb: 0.2, Seed: 3})
	must("grid", g, err)
	g, _, err = gen.RoadNetwork(gen.RoadConfig{Clusters: 3, ClusterWidth: 5, ClusterHeight: 4, Gateways: 2, DiagonalProb: 0.1, Seed: 4})
	must("road", g, err)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		ids := make([]graph.NodeID, 5+rng.Intn(40))
		for i := range ids {
			ids[i] = graph.NodeID(rng.Intn(500))
			g.AddNode(ids[i], graph.Coord{})
		}
		for range rng.Intn(3 * len(ids)) {
			e := graph.Edge{From: ids[rng.Intn(len(ids))], To: ids[rng.Intn(len(ids))], Weight: float64(rng.Intn(4)) / 2}
			g.AddEdge(e)
			if rng.Intn(5) == 0 {
				g.AddEdge(e) // parallel
			}
		}
		corpus[fmt.Sprintf("random%d", seed)] = g
	}
	return corpus
}

// checkTree verifies a predecessor map against its distance map: every
// reached node but the roots hangs off a reached node by an edge that
// accounts for its distance exactly, the roots sit at their seed cost,
// and following predecessors ends at a root — so the path they trace
// back from any reached node to a root costs exactly dist.
func checkTree(g *graph.Graph, roots, dist map[graph.NodeID]float64, pred map[graph.NodeID]graph.NodeID) error {
	for v, d := range dist {
		p, ok := pred[v]
		if !ok {
			if c, root := roots[v]; !root || c != d {
				return fmt.Errorf("node %d at %v has no predecessor and is not a seed at that cost", v, d)
			}
			continue
		}
		explained := false
		for _, e := range g.Out(p) {
			explained = explained || (e.To == v && dist[p]+e.Weight == d)
		}
		if _, reached := dist[p]; !reached || !explained {
			return fmt.Errorf("pred[%d] = %d: no edge makes %v out of %v", v, p, d, dist[p])
		}
		cur, hops := v, 0
		for q, ok := pred[cur]; ok; q, ok = pred[cur] {
			if cur, hops = q, hops+1; hops > len(dist) {
				return fmt.Errorf("predecessors of %d cycle", v)
			}
		}
	}
	for v := range pred {
		if _, reached := dist[v]; !reached {
			return fmt.Errorf("pred has unreached node %d", v)
		}
	}
	return nil
}

// TestSearchesEqualMapReference: on the whole corpus, from present,
// absent and duplicate sources, the exported searches return the maps
// the map-based reference returns (distances bit for bit — a settled
// cost does not depend on the order equal-cost entries leave the heap),
// a predecessor tree that explains them, and rows that say the same.
func TestSearchesEqualMapReference(t *testing.T) {
	for name, g := range searchCorpus(t) {
		nodes := g.Nodes()
		rng := rand.New(rand.NewSource(int64(len(nodes))))
		sources := []graph.NodeID{-3, 100000}
		for i := 0; i < 6 && len(nodes) > 0; i++ {
			sources = append(sources, nodes[rng.Intn(len(nodes))])
		}
		search := g.Searches(1)
		if search = append(search, g.Searches(0)...); len(search) != 1 {
			t.Fatalf("%s: Searches(1), Searches(0) gave %d functions", name, len(search))
		}
		for _, src := range sources {
			want, wantPred := refShortestPaths(g, src)
			dist, pred := g.ShortestPaths(src)
			if !reflect.DeepEqual(dist, want) {
				t.Fatalf("%s: ShortestPaths(%d) = %v, want %v", name, src, dist, want)
			}
			// The typed heap sifts as container/heap does, so even the
			// choice among equal-cost predecessors is the reference's.
			if !reflect.DeepEqual(pred, wantPred) {
				t.Fatalf("%s: ShortestPaths(%d) tree = %v, want %v", name, src, pred, wantPred)
			}
			if err := checkTree(g, map[graph.NodeID]float64{src: 0}, dist, pred); err != nil {
				t.Fatalf("%s: ShortestPaths(%d): %v", name, src, err)
			}
			if len(nodes) > 0 {
				to := nodes[len(nodes)-1]
				d, ok := want[to]
				if !ok {
					d = graph.Inf
				}
				if got := g.Distance(src, to); got != d {
					t.Fatalf("%s: Distance(%d, %d) = %v, want %v", name, src, to, got, d)
				}
			}

			levels := refBFSLevels(g, src)
			if got := g.BFSLevels(src); !reflect.DeepEqual(got, levels) {
				t.Fatalf("%s: BFSLevels(%d) = %v, want %v", name, src, got, levels)
			}
			if got := g.Reachable(src); len(got) != len(levels) {
				t.Fatalf("%s: Reachable(%d) has %d nodes, want %d", name, src, len(got), len(levels))
			}

			for _, hops := range []bool{false, true} {
				ids, row, prow := search[0](src, hops, nil)
				if !slices.Equal(ids, nodes) {
					t.Fatalf("%s: search rows are over %v, want Nodes() %v", name, ids, nodes)
				}
				for k, id := range ids {
					d, reached := want[id]
					if hops {
						d = float64(levels[id])
					}
					if (row[k] < graph.Inf) != reached || (reached && row[k] != d) {
						t.Fatalf("%s: search(%d, %v) row[%d] = %v, want %v (reached %v)", name, src, hops, id, row[k], d, reached)
					}
					if p := prow[k]; (p >= 0) != (reached && id != src) || (!hops && p >= 0 && ids[p] != pred[id]) {
						t.Fatalf("%s: search(%d, %v) pred row[%d] = %d, want the row of %d", name, src, hops, id, p, pred[id])
					}
				}
			}
		}
		if len(nodes) == 0 {
			continue
		}

		// Seeded searches: absent nodes, negative costs and seeds another
		// seed undercuts, over a row read back as the reference's maps.
		seeds := map[graph.NodeID]float64{-3: 1, nodes[0]: 2, nodes[len(nodes)/2]: 0.5, nodes[len(nodes)-1]: -1}
		want, _ := refShortestPathsMulti(g, seeds)
		c := g.CSR()
		row := slices.Repeat([]float64{graph.Inf}, len(c.IDs))
		for id, cost := range seeds {
			if k, ok := c.Row(id); ok {
				row[k] = cost
			}
		}
		drow, prow := c.SeededSearch(row)
		dist, pred := map[graph.NodeID]float64{}, map[graph.NodeID]graph.NodeID{}
		for k, d := range drow {
			if d < graph.Inf {
				dist[c.IDs[k]] = d
			}
			if p := prow[k]; p >= 0 {
				pred[c.IDs[k]] = c.IDs[p]
			}
		}
		if !reflect.DeepEqual(dist, want) {
			t.Fatalf("%s: SeededSearch(%v) = %v, want %v", name, seeds, dist, want)
		}
		if err := checkTree(g, seeds, dist, pred); err != nil {
			t.Fatalf("%s: SeededSearch(%v): %v", name, seeds, err)
		}
		multi := []graph.NodeID{nodes[0], -3, nodes[len(nodes)-1], nodes[0]}
		if got, want := g.BFSLevels(multi...), refBFSLevels(g, multi...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: BFSLevels(%v) = %v, want %v", name, multi, got, want)
		}
	}
}
