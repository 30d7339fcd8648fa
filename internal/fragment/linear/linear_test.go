package linear

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/fragment"
	"repro/internal/gen"
	"repro/internal/graph"
)

// stripe builds a horizontal path 0-1-2-…-(n-1) with coordinates along
// the x axis, symmetric edges.
func stripe(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), graph.Coord{X: float64(i), Y: 0})
	}
	for i := 0; i+1 < n; i++ {
		g.AddBoth(graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1})
	}
	return g
}

func TestOptionsValidation(t *testing.T) {
	g := stripe(5)
	for i, o := range []Options{
		{NumFragments: 0},
		{NumFragments: -2},
		{NumFragments: 2, StartCount: -1},
		{NumFragments: 2, Axis: Axis(7)},
		{NumFragments: 2, StartNodes: []graph.NodeID{99}},
	} {
		if _, err := Fragment(g, o); err == nil {
			t.Errorf("case %d: Options %+v accepted", i, o)
		}
	}
	empty := graph.New()
	empty.AddNode(0, graph.Coord{})
	if _, err := Fragment(empty, Options{NumFragments: 1}); err == nil {
		t.Error("edgeless graph accepted")
	}
}

func TestStartNodes(t *testing.T) {
	g := graph.New()
	g.AddNode(1, graph.Coord{X: 5, Y: 0})
	g.AddNode(2, graph.Coord{X: 1, Y: 9})
	g.AddNode(3, graph.Coord{X: 1, Y: 2})
	g.AddNode(4, graph.Coord{X: 8, Y: 1})
	got := StartNodes(g, 2, XAxis)
	// Smallest x is 1 (nodes 2, 3); tie broken by y: node 3 first.
	if !reflect.DeepEqual(got, []graph.NodeID{3, 2}) {
		t.Errorf("StartNodes X = %v, want [3 2]", got)
	}
	gotY := StartNodes(g, 1, YAxis)
	if !reflect.DeepEqual(gotY, []graph.NodeID{1}) {
		t.Errorf("StartNodes Y = %v, want [1]", gotY)
	}
	if all := StartNodes(g, 100, XAxis); len(all) != 4 {
		t.Errorf("oversized s returned %d nodes", len(all))
	}
}

func TestStripeSweep(t *testing.T) {
	// A 9-node path into 2 fragments: threshold = 16/2 = 8 directed
	// edges; the sweep from node 0 closes fragment 1 mid-path.
	g := stripe(9)
	res, err := Fragment(g, Options{NumFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fragmentation
	if fr.NumFragments() != 2 {
		t.Fatalf("fragments = %d, want 2", fr.NumFragments())
	}
	c := fragment.Measure(fr)
	if !c.LooselyConnected {
		t.Error("linear fragmentation must be loosely connected")
	}
	// On a path the boundary is a single node.
	if c.DS != 1 {
		t.Errorf("DS = %v, want 1", c.DS)
	}
}

func TestBoundariesMatchDisconnectionSets(t *testing.T) {
	g := stripe(12)
	res, err := Fragment(g, Options{NumFragments: 3})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fragmentation
	if len(res.Boundaries) != fr.NumFragments() {
		t.Fatalf("boundaries = %d, fragments = %d", len(res.Boundaries), fr.NumFragments())
	}
	for k := 0; k+1 < fr.NumFragments(); k++ {
		ds := fr.DisconnectionSet(k, k+1)
		if !reflect.DeepEqual(res.Boundaries[k], ds) {
			t.Errorf("boundary[%d] = %v, DS = %v", k, res.Boundaries[k], ds)
		}
	}
	if res.Boundaries[fr.NumFragments()-1] != nil {
		t.Error("last fragment should have no boundary")
	}
}

func TestExplicitStartNodes(t *testing.T) {
	g := stripe(9)
	// Start from the right end: fragment 0 must contain the rightmost
	// edge.
	res, err := Fragment(g, Options{NumFragments: 2, StartNodes: []graph.NodeID{8}})
	if err != nil {
		t.Fatal(err)
	}
	f0 := res.Fragmentation.Fragment(0)
	if !f0.HasNode(8) {
		t.Error("fragment 0 should start at node 8")
	}
	if f0.HasNode(0) {
		t.Error("fragment 0 should not reach the far end")
	}
}

func TestChainStructure(t *testing.T) {
	// Every DS connects consecutive fragments only: G' is a path.
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.Defaults(15, 31)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fragment(g, Options{NumFragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Fragmentation.DisconnectionPairs() {
		if p.J != p.I+1 {
			t.Errorf("non-consecutive disconnection set %v", p)
		}
	}
}

func TestDisconnectedGraphRestarts(t *testing.T) {
	g := stripe(5)
	// Far-away separate component.
	g.AddNode(100, graph.Coord{X: 50, Y: 0})
	g.AddNode(101, graph.Coord{X: 51, Y: 0})
	g.AddBoth(graph.Edge{From: 100, To: 101, Weight: 1})
	res, err := Fragment(g, Options{NumFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range res.Fragmentation.Fragments() {
		total += f.Size()
	}
	if total != g.NumEdges() {
		t.Errorf("disconnected graph: %d of %d edges assigned", total, g.NumEdges())
	}
	if !res.Fragmentation.FragmentationGraph().IsLooselyConnected() {
		t.Error("restart broke acyclicity")
	}
}

func TestSingleFragment(t *testing.T) {
	g := stripe(5)
	res, err := Fragment(g, Options{NumFragments: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragmentation.NumFragments() != 1 {
		t.Errorf("fragments = %d, want 1", res.Fragmentation.NumFragments())
	}
}

func TestMoreFragmentsThanEdges(t *testing.T) {
	g := graph.New()
	g.AddNode(0, graph.Coord{X: 0})
	g.AddNode(1, graph.Coord{X: 1})
	g.AddEdge(graph.Edge{From: 0, To: 1, Weight: 1})
	res, err := Fragment(g, Options{NumFragments: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragmentation.NumFragments() != 1 {
		t.Errorf("fragments = %d, want 1", res.Fragmentation.NumFragments())
	}
}

// wideEllipse builds the Fig. 8 scenario: a graph 4× wider than tall —
// a grid of width w and height h with symmetric edges.
func wideEllipse(w, h int) *graph.Graph {
	g := graph.New()
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddNode(id(x, y), graph.Coord{X: float64(x), Y: float64(y)})
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddBoth(graph.Edge{From: id(x, y), To: id(x+1, y), Weight: 1})
			}
			if y+1 < h {
				g.AddBoth(graph.Edge{From: id(x, y), To: id(x, y+1), Weight: 1})
			}
		}
	}
	return g
}

func TestFig8AxisChoiceMatters(t *testing.T) {
	// Sweeping a wide grid along x cuts across the short dimension
	// (boundary ≈ h nodes); sweeping along y cuts across the long one
	// (boundary ≈ w nodes). The paper's Fig. 8 point: x is better.
	// The start group spans the full extreme end of the graph (the
	// paper's "group of start nodes located on an extreme end"): the
	// left column for the x-sweep, the top row for the y-sweep.
	g := wideEllipse(20, 5)
	resX, err := Fragment(g, Options{NumFragments: 3, Axis: XAxis, StartCount: 5})
	if err != nil {
		t.Fatal(err)
	}
	resY, err := Fragment(g, Options{NumFragments: 3, Axis: YAxis, StartCount: 20})
	if err != nil {
		t.Fatal(err)
	}
	dsX := fragment.Measure(resX.Fragmentation).DS
	dsY := fragment.Measure(resY.Fragmentation).DS
	if dsX >= dsY {
		t.Errorf("DS along x = %v, along y = %v; x-sweep should win on a wide graph", dsX, dsY)
	}
}

// TestPropertyAcyclicAndComplete: the central §3.3 guarantee — for any
// random graph the fragmentation graph is acyclic, and the edge
// partition is exact.
func TestPropertyAcyclicAndComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.General(gen.Defaults(8+rng.Intn(25), seed))
		if err != nil || g.NumEdges() == 0 {
			return err == nil
		}
		k := 1 + rng.Intn(5)
		res, err := Fragment(g, Options{NumFragments: k, StartCount: 1 + rng.Intn(3)})
		if err != nil {
			return false
		}
		fr := res.Fragmentation
		total := 0
		for _, f := range fr.Fragments() {
			total += f.Size()
		}
		if total != g.NumEdges() {
			return false
		}
		return fr.FragmentationGraph().IsLooselyConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNoFragmentSkipsLevels: DS pairs are consecutive, matching
// the linear chain intuition of Fig. 6 (restarts may split the chain,
// but never create skip links).
func TestPropertyNoFragmentSkipsLevels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: 2 + rng.Intn(3),
			Cluster:  gen.Defaults(8+rng.Intn(8), seed),
		})
		if err != nil {
			return false
		}
		res, err := Fragment(g, Options{NumFragments: 2 + rng.Intn(4)})
		if err != nil {
			return false
		}
		for _, p := range res.Fragmentation.DisconnectionPairs() {
			if p.J != p.I+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
