package graph

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary text to the graph parser: it must never
// panic, any graph it accepts must hold no NaN weight and must survive
// a write/read round trip.
// (Seed corpus only under plain `go test`; run `go test -fuzz=FuzzRead
// ./internal/graph` to explore.)
func FuzzRead(f *testing.F) {
	f.Add("node 1 0 0\nedge 1 2 1.5\n")
	f.Add("# comment\n\nedge 3 4\n")
	f.Add("node 1 0.5 -2\nnode 2 3 4\nedge 1 2 2.25\nedge 2 1 1\n")
	f.Add("edge 1 1 0\n")
	f.Add("node -5 1e300 -1e300\n")
	f.Add("bogus\n")
	f.Add("edge a b c\n")
	f.Add("edge 1 2 NaN\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, e := range g.Edges() {
			if math.IsNaN(e.Weight) {
				t.Fatalf("accepted a NaN weight: %v", e)
			}
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed the graph: %v vs %v", back, g)
		}
	})
}

// FuzzNewCSR holds NewCSR to Graph.CSR: over a node set and edge runs
// drawn from the input — endpoints partly outside the set, parallel
// edges and self-loops included — it must equal the CSR of the graph
// with those nodes and an AddEdge for each run edge whose endpoints
// are both nodes, in run order; and its Row must find exactly the
// nodes.
func FuzzNewCSR(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 5, 2, 3, 1, 9, 1, 1}, uint8(1))
	f.Add([]byte{}, []byte{1, 2, 3}, uint8(0))
	f.Add([]byte{0, 0, 7}, []byte{7, 7, 2, 0, 7, 1, 7, 0, 4, 0, 7, 1}, uint8(2))
	// A dense id range that does not start at 0: RowOf's probe hits.
	f.Add([]byte{5, 6, 7, 8, 9}, []byte{5, 9, 1, 6, 5, 2, 9, 4, 3, 8, 7, 1, 7, 8, 2}, uint8(4))
	// A range with gaps: the probe falls through to the search, for
	// nodes after a gap and for ids inside one.
	f.Add([]byte{2, 3, 7, 11, 12, 20}, []byte{2, 20, 1, 3, 5, 1, 11, 7, 2, 12, 2, 3, 20, 12, 4, 7, 9, 1}, uint8(9))
	f.Fuzz(func(t *testing.T, nodeBytes, edgeBytes []byte, cuts uint8) {
		ids := make([]NodeID, 0, len(nodeBytes))
		for _, b := range nodeBytes {
			ids = append(ids, NodeID(b%24))
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		var edges []Edge
		for i := 0; i+2 < len(edgeBytes); i += 3 {
			edges = append(edges, Edge{From: NodeID(edgeBytes[i] % 32), To: NodeID(edgeBytes[i+1] % 32), Weight: float64(edgeBytes[i+2])})
		}
		// Split the edges into runs at positions the cut bits pick.
		var runs [][]Edge
		start := 0
		for i := range edges {
			if cuts>>(i%8)&1 == 1 {
				runs, start = append(runs, edges[start:i]), i
			}
		}
		runs = append(runs, edges[start:])

		ref := New()
		for _, id := range ids {
			ref.AddNode(id, Coord{})
		}
		for _, e := range edges {
			if ref.HasNode(e.From) && ref.HasNode(e.To) {
				ref.AddEdge(e)
			}
		}
		got, want := NewCSR(slices.Clone(ids), runs...), ref.CSR()
		if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Off, want.Off) ||
			!slices.Equal(got.To, want.To) || !slices.Equal(got.W, want.W) {
			t.Fatalf("NewCSR(%v, %v) = %+v, want %+v", ids, runs, got, want)
		}
		if es, ws := got.Edges(), ref.Edges(); !slices.Equal(es, ws) {
			t.Fatalf("Edges() = %v, want %v", es, ws)
		}
		for id := NodeID(-1); id <= 32; id++ {
			k, ok := got.Row(id)
			if ok != ref.HasNode(id) || ok && got.IDs[k] != id {
				t.Fatalf("Row(%d) = (%d, %v) over %v", id, k, ok, got.IDs)
			}
		}
	})
}

// FuzzUndirected holds the undirected snapshot and the status scores
// read from it to references built from Edges() alone: over a node set
// and an edge run drawn from the input — self-loops, parallel and
// one-way edges included — each row of CSR().Undirected() must list
// the distinct nodes joined to its node by an edge in either
// direction, ascending, the node itself left out; and StatusScore and
// TopByStatus over all nodes must equal refStatus, which scores by an
// unbounded breadth-first search.
func FuzzUndirected(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 5, 2, 1, 5, 2, 3, 1, 3, 3, 0}, uint8(128), uint8(3))
	f.Add([]byte{}, []byte{0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1}, uint8(200), uint8(2))
	f.Add([]byte{9, 30}, []byte{0, 1, 1, 0, 1, 2, 0, 2, 1, 2, 0, 1, 5, 0, 1, 6, 6, 1}, uint8(77), uint8(1))
	f.Fuzz(func(t *testing.T, nodeBytes, edgeBytes []byte, aByte, depthByte uint8) {
		g := New()
		for _, b := range nodeBytes {
			g.AddNode(NodeID(b%32), Coord{})
		}
		for i := 0; i+2 < len(edgeBytes); i += 3 {
			g.AddEdge(Edge{From: NodeID(edgeBytes[i] % 16), To: NodeID(edgeBytes[i+1] % 16), Weight: float64(edgeBytes[i+2])})
		}
		nbs := make(map[NodeID][]NodeID)
		for _, e := range g.Edges() {
			if e.From != e.To {
				nbs[e.From] = append(nbs[e.From], e.To)
				nbs[e.To] = append(nbs[e.To], e.From)
			}
		}
		for id, ns := range nbs {
			slices.Sort(ns)
			nbs[id] = slices.Compact(ns)
		}

		u := g.CSR().Undirected()
		if ids := g.Nodes(); !slices.Equal(u.IDs, ids) || len(u.Off) != len(ids)+1 {
			t.Fatalf("snapshot rows %v (offsets %v), want one per node of %v", u.IDs, u.Off, ids)
		}
		for k, id := range u.IDs {
			var row []NodeID
			for j := u.Off[k]; j < u.Off[k+1]; j++ {
				if u.W[j] != 1 {
					t.Fatalf("row of %d: weight %v, want 1", id, u.W[j])
				}
				row = append(row, u.IDs[u.To[j]])
			}
			if !slices.Equal(row, nbs[id]) {
				t.Fatalf("row of %d = %v, want %v", id, row, nbs[id])
			}
		}

		a, depth := float64(aByte)/256, int(depthByte%5)
		want := refStatus(g.Nodes(), nbs, a, depth)
		for id, s := range want {
			if got := g.StatusScore(id, a, depth); got != s {
				t.Fatalf("StatusScore(%d, %v, %d) = %v, want %v", id, a, depth, got, s)
			}
		}
		order := g.Nodes()
		slices.SortStableFunc(order, func(x, y NodeID) int { return cmp.Compare(want[y], want[x]) })
		if got := g.TopByStatus(len(order), a, depth); !slices.Equal(got, order) {
			t.Fatalf("TopByStatus(all, %v, %d) = %v, want %v", a, depth, got, order)
		}
	})
}

// refStatus is the status score of every node as the center-based
// algorithm first computed it: a breadth-first search over the whole
// undirected graph, then every level from 1 to depth summed in turn.
func refStatus(ids []NodeID, nbs map[NodeID][]NodeID, a float64, depth int) map[NodeID]float64 {
	scores := make(map[NodeID]float64, len(ids))
	for _, i := range ids {
		score := float64(len(nbs[i]))
		if depth <= 0 {
			scores[i] = score
			continue
		}
		levels := map[NodeID]int{i: 0}
		for queue := []NodeID{i}; len(queue) > 0; queue = queue[1:] {
			for _, n := range nbs[queue[0]] {
				if _, ok := levels[n]; !ok {
					levels[n] = levels[queue[0]] + 1
					queue = append(queue, n)
				}
			}
		}
		ringSum := make([]float64, depth+1)
		for j, d := range levels {
			if d >= 1 && d <= depth {
				ringSum[d] += float64(len(nbs[j]))
			}
		}
		factor := 1.0
		for d := 1; d <= depth; d++ {
			factor *= a
			score += factor * ringSum[d]
		}
		scores[i] = score
	}
	return scores
}
