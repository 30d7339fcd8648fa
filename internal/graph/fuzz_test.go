package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary text to the graph parser: it must never
// panic, and any graph it accepts must survive a write/read round trip.
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
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
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
// are both nodes, in run order.
func FuzzNewCSR(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 5, 2, 3, 1, 9, 1, 1}, uint8(1))
	f.Add([]byte{}, []byte{1, 2, 3}, uint8(0))
	f.Add([]byte{0, 0, 7}, []byte{7, 7, 2, 0, 7, 1, 7, 0, 4, 0, 7, 1}, uint8(2))
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
	})
}
