package auto

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/fragment"
	"repro/internal/fragment/bea"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/graph"
)

// edgeCmp is the (From, To, Weight) order of graph.Edges; NaN weights
// compare equal to each other.
func edgeCmp(a, b graph.Edge) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Weight, b.Weight))
}

// partitions reports whether the fragments of fr hold every edge of g
// exactly once, each copy of a parallel edge counted.
func partitions(g *graph.Graph, fr *fragment.Fragmentation) bool {
	var got []graph.Edge
	for _, f := range fr.Fragments() {
		got = append(got, f.Edges...)
	}
	slices.SortFunc(got, edgeCmp)
	return slices.EqualFunc(got, g.Edges(), func(a, b graph.Edge) bool { return edgeCmp(a, b) == 0 })
}

// fragmenters runs each §3 algorithm as Choose does, for n fragments.
var fragmenters = []struct {
	name string
	run  func(g *graph.Graph, n int) (*fragment.Fragmentation, error)
}{
	{"center", func(g *graph.Graph, n int) (*fragment.Fragmentation, error) {
		return center.Fragment(g, center.Options{NumFragments: n, Distributed: true})
	}},
	{"linear", func(g *graph.Graph, n int) (*fragment.Fragmentation, error) {
		res, err := linear.Fragment(g, linear.Options{NumFragments: n})
		if err != nil {
			return nil, err
		}
		return res.Fragmentation, nil
	}},
	{"bea", func(g *graph.Graph, _ int) (*fragment.Fragmentation, error) {
		return bea.Fragment(g, bea.Options{Threshold: 3})
	}},
}

// pathGraph is the symmetric path 0 – 1 – … – 5 along the x axis.
func pathGraph() *graph.Graph {
	g := graph.New()
	for i := range graph.NodeID(6) {
		g.AddNode(i, graph.Coord{X: float64(i)})
		if i > 0 {
			g.AddBoth(graph.Edge{From: i - 1, To: i, Weight: 1})
		}
	}
	return g
}

// TestFragmentersPlaceParallelCopies: an exact parallel edge is two
// tuples of R, and every fragmenter places both.
func TestFragmentersPlaceParallelCopies(t *testing.T) {
	g := pathGraph()
	g.AddEdge(graph.Edge{From: 2, To: 3, Weight: 1})
	for _, f := range fragmenters {
		fr, err := f.run(g, 2)
		if err != nil {
			t.Errorf("%s: %v", f.name, err)
			continue
		}
		if !partitions(g, fr) {
			t.Errorf("%s: fragments do not hold every edge copy once", f.name)
		}
	}
}

// TestFragmentersRefuseNaNWeight: a NaN weight equals no edge, itself
// included; every fragmenter refuses the graph, and promptly.
func TestFragmentersRefuseNaNWeight(t *testing.T) {
	g := pathGraph()
	g.AddEdge(graph.Edge{From: 0, To: 5, Weight: math.NaN()})
	for _, f := range fragmenters {
		done := make(chan error, 1)
		go func() {
			_, err := f.run(g, 2)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: accepted a NaN weight", f.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer within 5s", f.name)
		}
	}
}

// FuzzChoose builds small graphs from bytes — parallel edges,
// self-loops and a NaN weight all drawable — and holds Choose to an
// error or to candidates that each partition every edge.
func FuzzChoose(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 0, 3}, uint8(2))
	f.Add([]byte{0, 1, 1, 0, 1, 1, 1, 2, 0, 2, 2, 4, 3, 1, 0}, uint8(2)) // a parallel copy and a self-loop
	f.Add([]byte{0, 1, 5, 1, 2, 1, 2, 0, 1}, uint8(1))                   // a NaN weight
	weights := [...]float64{1, 2, 0.5, 1, 3, math.NaN(), 0, 7}
	f.Fuzz(func(t *testing.T, data []byte, frags uint8) {
		g := graph.New()
		for i := 0; i+2 < min(len(data), 3*48); i += 3 {
			g.AddEdge(graph.Edge{From: graph.NodeID(data[i] % 10), To: graph.NodeID(data[i+1] % 10), Weight: weights[data[i+2]%8]})
		}
		for _, id := range g.Nodes() {
			g.AddNode(id, graph.Coord{X: float64(id * 7 % 10), Y: float64(id % 3)})
		}
		cands, err := Choose(g, int(frags%5)+1, DefaultWeights(), 1)
		if err != nil {
			return
		}
		for _, c := range cands {
			if !partitions(g, c.Fragmentation) {
				t.Fatalf("%s: fragments do not hold every edge copy once", c.Name)
			}
		}
	})
}
