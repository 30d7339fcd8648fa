package graph

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// line builds the directed path 0 -> 1 -> ... -> n-1 with unit weights.
func line(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i), Coord{X: float64(i)})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(Edge{From: NodeID(i), To: NodeID(i + 1), Weight: 1})
	}
	return g
}

// ringBoth builds the symmetric cycle of n nodes.
func ringBoth(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i), Coord{})
	}
	for i := 0; i < n; i++ {
		g.AddBoth(Edge{From: NodeID(i), To: NodeID((i + 1) % n), Weight: 1})
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := New()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Diameter() != 0 {
		t.Errorf("empty graph diameter = %d, want 0", g.Diameter())
	}
	if comps := g.ConnectedComponents(); len(comps) != 0 {
		t.Errorf("empty graph components = %v, want none", comps)
	}
	if d := g.Distance(1, 2); !math.IsInf(d, 1) {
		t.Errorf("distance on empty graph = %v, want +Inf", d)
	}
}

func TestAddNodeAndEdge(t *testing.T) {
	g := New()
	g.AddNode(3, Coord{X: 1, Y: 2})
	if !g.HasNode(3) {
		t.Fatal("node 3 missing after AddNode")
	}
	if c := g.Coord(3); c.X != 1 || c.Y != 2 {
		t.Errorf("coord = %+v, want {1 2}", c)
	}
	g.AddEdge(Edge{From: 3, To: 7, Weight: 2.5})
	if !g.HasNode(7) {
		t.Error("AddEdge should implicitly add node 7")
	}
	if !g.HasEdge(3, 7) {
		t.Error("edge 3->7 missing")
	}
	if g.HasEdge(7, 3) {
		t.Error("edge 7->3 should not exist (directed)")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestAddBoth(t *testing.T) {
	g := New()
	g.AddBoth(Edge{From: 1, To: 2, Weight: 4})
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("AddBoth should add both directions")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestNodesSorted(t *testing.T) {
	g := New()
	for _, id := range []NodeID{5, 1, 9, 3} {
		g.AddNode(id, Coord{})
	}
	got := g.Nodes()
	want := []NodeID{1, 3, 5, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Nodes() = %v, want %v", got, want)
	}
}

func TestGradeAndNeighbors(t *testing.T) {
	g := New()
	// Star: center 0 connected symmetrically to 1..4.
	for i := 1; i <= 4; i++ {
		g.AddBoth(Edge{From: 0, To: NodeID(i), Weight: 1})
	}
	if got := g.Grade(0); got != 4 {
		t.Errorf("Grade(center) = %d, want 4", got)
	}
	if got := g.Grade(1); got != 1 {
		t.Errorf("Grade(leaf) = %d, want 1", got)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []NodeID{1, 2, 3, 4}) {
		t.Errorf("Neighbors(0) = %v", got)
	}
}

func TestGradeIgnoresSelfLoop(t *testing.T) {
	g := New()
	g.AddEdge(Edge{From: 1, To: 1})
	g.AddBoth(Edge{From: 1, To: 2})
	if got := g.Grade(1); got != 1 {
		t.Errorf("Grade with self loop = %d, want 1", got)
	}
}

func TestBFSLevelsLine(t *testing.T) {
	g := line(5)
	levels := g.BFSLevels(0)
	for i := 0; i < 5; i++ {
		if levels[NodeID(i)] != i {
			t.Errorf("level(%d) = %d, want %d", i, levels[NodeID(i)], i)
		}
	}
	// Directed: nothing reaches node 0 except itself.
	back := g.BFSLevels(4)
	if len(back) != 1 {
		t.Errorf("BFS from sink reached %d nodes, want 1", len(back))
	}
}

func TestBFSLevelsMultiSource(t *testing.T) {
	g := line(7)
	levels := g.BFSLevels(0, 4)
	if levels[5] != 1 {
		t.Errorf("level(5) = %d, want 1 (from source 4)", levels[5])
	}
	if levels[2] != 2 {
		t.Errorf("level(2) = %d, want 2 (from source 0)", levels[2])
	}
}

func TestBFSLevelsUnknownSource(t *testing.T) {
	g := line(3)
	if got := g.BFSLevels(99); len(got) != 0 {
		t.Errorf("BFS from unknown source returned %v", got)
	}
}

func TestUndirectedBFSLevels(t *testing.T) {
	g := line(5) // directed 0->...->4
	levels := g.UndirectedBFSLevels(4)
	if len(levels) != 5 {
		t.Fatalf("undirected BFS reached %d nodes, want 5", len(levels))
	}
	if levels[0] != 4 {
		t.Errorf("undirected level(0) = %d, want 4", levels[0])
	}
}

func TestReachable(t *testing.T) {
	g := line(4)
	g.AddNode(100, Coord{})
	r := g.Reachable(1)
	if _, ok := r[0]; ok {
		t.Error("node 0 should not be reachable from 1 in a directed line")
	}
	for _, id := range []NodeID{1, 2, 3} {
		if _, ok := r[id]; !ok {
			t.Errorf("node %d should be reachable from 1", id)
		}
	}
	if _, ok := r[100]; ok {
		t.Error("isolated node should not be reachable")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	g.AddBoth(Edge{From: 1, To: 2})
	g.AddBoth(Edge{From: 3, To: 4})
	g.AddNode(9, Coord{})
	comps := g.ConnectedComponents()
	want := [][]NodeID{{1, 2}, {3, 4}, {9}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("components = %v, want %v", comps, want)
	}
}

func TestShortestPathsTriangle(t *testing.T) {
	g := New()
	g.AddEdge(Edge{From: 1, To: 2, Weight: 1})
	g.AddEdge(Edge{From: 2, To: 3, Weight: 1})
	g.AddEdge(Edge{From: 1, To: 3, Weight: 5})
	dist, pred := g.ShortestPaths(1)
	if dist[3] != 2 {
		t.Errorf("dist(1,3) = %v, want 2 (via 2)", dist[3])
	}
	path := PathTo(1, 3, dist, pred)
	if !reflect.DeepEqual(path, []NodeID{1, 2, 3}) {
		t.Errorf("path = %v, want [1 2 3]", path)
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := line(3)
	g.AddNode(42, Coord{})
	dist, pred := g.ShortestPaths(0)
	if _, ok := dist[42]; ok {
		t.Error("isolated node should be absent from dist")
	}
	if p := PathTo(0, 42, dist, pred); p != nil {
		t.Errorf("PathTo unreachable = %v, want nil", p)
	}
	if d := g.Distance(0, 42); !math.IsInf(d, 1) {
		t.Errorf("Distance unreachable = %v, want +Inf", d)
	}
}

func TestDistanceSelf(t *testing.T) {
	g := line(3)
	if d := g.Distance(1, 1); d != 0 {
		t.Errorf("Distance(v,v) = %v, want 0", d)
	}
}

func TestDiameterLineAndRing(t *testing.T) {
	if d := line(6).Diameter(); d != 5 {
		t.Errorf("line(6) diameter = %d, want 5", d)
	}
	if d := ringBoth(8).Diameter(); d != 4 {
		t.Errorf("ring(8) diameter = %d, want 4", d)
	}
}

func TestEuclideanDistance(t *testing.T) {
	g := New()
	g.AddNode(1, Coord{X: 0, Y: 0})
	g.AddNode(2, Coord{X: 3, Y: 4})
	if d := g.EuclideanDistance(1, 2); d != 5 {
		t.Errorf("distance = %v, want 5", d)
	}
}

// TestSharedCloneEditsAreCopyOnWrite: no edit of a CloneShared clone —
// AddEdge (between known nodes or to a brand-new one), RemoveEdge,
// AddNode repositioning an existing id, InstallNode — reaches the graph
// it was cloned from, even where the original's lists have spare
// capacity, and the lists of unedited nodes stay shared.
func TestSharedCloneEditsAreCopyOnWrite(t *testing.T) {
	g := line(4)
	dup := Edge{From: 1, To: 2, Weight: 1}
	g.AddEdge(dup) // a parallel edge; its list now has spare capacity
	wantOut1 := append([]Edge(nil), g.Out(1)...)
	wantIn2 := append([]Edge(nil), g.In(2)...)

	c := g.CloneShared()
	if !c.RemoveEdge(dup) {
		t.Fatal("RemoveEdge did not find an existing edge")
	}
	c.AddEdge(Edge{From: 1, To: 3, Weight: 7})
	if c.RemoveEdge(Edge{From: 1, To: 2, Weight: 9}) || c.RemoveEdge(Edge{From: 9, To: 2, Weight: 1}) {
		t.Error("RemoveEdge reported an edge that is not there")
	}
	if c.NumEdges() != g.NumEdges() {
		t.Errorf("clone has %d edges after one removal and one insert, want %d", c.NumEdges(), g.NumEdges())
	}
	if !c.HasEdge(1, 2) || !c.HasEdge(1, 3) || len(c.Out(1)) != 2 || len(c.In(2)) != 1 {
		t.Errorf("clone: Out(1) = %v, In(2) = %v; want one 1→2 left and the new 1→3", c.Out(1), c.In(2))
	}
	if !reflect.DeepEqual(g.Out(1), wantOut1) || !reflect.DeepEqual(g.In(2), wantIn2) || g.HasEdge(1, 3) {
		t.Errorf("original changed: Out(1) = %v, In(2) = %v", g.Out(1), g.In(2))
	}
	if &c.Out(0)[0] != &g.Out(0)[0] {
		t.Error("the list of an unedited node was copied, not shared")
	}

	g.AddNode(2, Coord{X: 2, Y: 2})
	wantIn3 := append([]Edge(nil), g.In(3)...)
	nodes, edges := g.NumNodes(), g.NumEdges()
	c = g.CloneShared()
	c.AddNode(2, Coord{X: -5, Y: 5})            // reposition
	c.AddEdge(Edge{From: 3, To: 40, Weight: 2}) // brand-new endpoint
	c.InstallNode(41, Coord{X: 1}, []Edge{{From: 41, To: 3, Weight: 1}}, nil)
	if got := c.Coord(2); got != (Coord{X: -5, Y: 5}) || len(c.Out(2)) != 1 || len(c.In(2)) != 2 {
		t.Errorf("clone: repositioned node 2 = %+v with Out %v, In %v; want the new position and its edges kept", got, c.Out(2), c.In(2))
	}
	if !c.HasNode(40) || c.Coord(40) != (Coord{}) || len(c.In(40)) != 1 || !c.HasEdge(41, 3) {
		t.Errorf("clone: In(40) = %v, Out(41) = %v; want the new endpoint at the zero coordinate and the installed node", c.In(40), c.Out(41))
	}
	if c.NumNodes() != nodes+2 || c.NumEdges() != edges+2 {
		t.Errorf("clone = %v, want %d nodes and %d edges", c, nodes+2, edges+2)
	}
	if g.Coord(2) != (Coord{X: 2, Y: 2}) || len(g.Out(3)) != 0 || !reflect.DeepEqual(g.In(3), wantIn3) ||
		g.HasNode(40) || g.HasNode(41) || g.NumNodes() != nodes || g.NumEdges() != edges {
		t.Errorf("original changed: %v, Coord(2) = %+v, Out(3) = %v, In(3) = %v", g, g.Coord(2), g.Out(3), g.In(3))
	}
}

func TestSubgraph(t *testing.T) {
	g := line(5)
	g.AddNode(0, Coord{X: -1, Y: 7})
	sub := g.Subgraph([]Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}})
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("subgraph = %v", sub)
	}
	if c := sub.Coord(0); c.X != -1 || c.Y != 7 {
		t.Errorf("subgraph should copy coordinates, got %+v", c)
	}
	if sub.HasNode(4) {
		t.Error("subgraph should not contain untouched nodes")
	}
}

func TestStatusScoreStar(t *testing.T) {
	// Star with center 0 and leaves 1..4. grade(0)=4; at distance 1 from 0
	// the leaves each have grade 1, so score(0) = 4 + a*4.
	g := New()
	for i := 1; i <= 4; i++ {
		g.AddBoth(Edge{From: 0, To: NodeID(i)})
	}
	a := 0.5
	got := g.StatusScore(0, a, 3)
	want := 4 + a*4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("StatusScore(center) = %v, want %v", got, want)
	}
	// Leaf: grade 1, center at distance 1 has grade 4, three other leaves
	// at distance 2 have grade 1 each.
	gotLeaf := g.StatusScore(1, a, 3)
	wantLeaf := 1 + a*4 + a*a*3
	if math.Abs(gotLeaf-wantLeaf) > 1e-12 {
		t.Errorf("StatusScore(leaf) = %v, want %v", gotLeaf, wantLeaf)
	}
}

func TestStatusScoreDepthZero(t *testing.T) {
	g := ringBoth(5)
	if got := g.StatusScore(0, 0.5, 0); got != 2 {
		t.Errorf("depth-0 status = %v, want grade 2", got)
	}
}

func TestTopByStatusPrefersCenter(t *testing.T) {
	g := New()
	for i := 1; i <= 6; i++ {
		g.AddBoth(Edge{From: 0, To: NodeID(i)})
	}
	top := g.TopByStatus(1, 0.5, 3)
	if len(top) != 1 || top[0] != 0 {
		t.Errorf("TopByStatus = %v, want [0]", top)
	}
	all := g.TopByStatus(100, 0.5, 3)
	if len(all) != 7 {
		t.Errorf("TopByStatus(100) returned %d nodes, want all 7", len(all))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := New()
	g.AddNode(1, Coord{X: 0.5, Y: -2})
	g.AddNode(2, Coord{X: 3, Y: 4})
	g.AddNode(9, Coord{}) // isolated node must survive
	g.AddEdge(Edge{From: 1, To: 2, Weight: 2.25})
	g.AddEdge(Edge{From: 2, To: 1, Weight: 1})

	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if back.NumNodes() != 3 || back.NumEdges() != 2 {
		t.Fatalf("round trip: %v", back)
	}
	if c := back.Coord(1); c.X != 0.5 || c.Y != -2 {
		t.Errorf("coord lost in round trip: %+v", c)
	}
	if !reflect.DeepEqual(back.Edges(), g.Edges()) {
		t.Errorf("edges differ after round trip:\n%v\n%v", back.Edges(), g.Edges())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"unknown directive", "vertex 1 0 0\n"},
		{"node missing args", "node 1 0\n"},
		{"bad node id", "node x 0 0\n"},
		{"bad coordinate", "node 1 a 0\n"},
		{"edge missing args", "edge 1\n"},
		{"bad edge weight", "edge 1 2 w\n"},
		{"bad edge endpoint", "edge a 2\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(c.input)); err == nil {
				t.Errorf("Read(%q) succeeded, want error", c.input)
			}
		})
	}
}

// errAfterReader yields its payload, then fails with a synthetic
// stream error — a transport failing mid-parse.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadErrorsReportLine: every parse failure names the offending
// line, so a bad row in a million-line file is findable.
func TestReadErrorsReportLine(t *testing.T) {
	in := "node 1 0 0\nnode 2 1 0\nedge 1 x\n"
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("Read succeeded, want error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
}

// TestReadStreamErrorHasLineContext: a reader failing mid-stream (a
// truncated pipe, a dying disk) reports where the scan stopped, not
// just the underlying error.
func TestReadStreamErrorHasLineContext(t *testing.T) {
	boom := errors.New("synthetic stream failure")
	_, err := Read(&errAfterReader{data: []byte("node 1 0 0\nnode 2 1 0\nedge 1 2 1\n"), err: boom})
	if err == nil {
		t.Fatal("Read succeeded, want error")
	}
	if !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), boom.Error()) {
		t.Errorf("error %q should name line 4 and the stream failure", err)
	}
}

func TestReadCommentsAndDefaults(t *testing.T) {
	in := "# a comment\n\nedge 1 2\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	es := g.Edges()
	if len(es) != 1 || es[0].Weight != 1 {
		t.Errorf("edges = %v, want one unit-weight edge", es)
	}
}

// randomGraph builds a connected-ish random symmetric graph for property
// tests.
func randomGraph(rng *rand.Rand, n, extraEdges int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i), Coord{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		g.AddBoth(Edge{From: NodeID(i), To: NodeID(j), Weight: 1 + rng.Float64()*9})
	}
	for k := 0; k < extraEdges; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j && !g.HasEdge(NodeID(i), NodeID(j)) {
			g.AddBoth(Edge{From: NodeID(i), To: NodeID(j), Weight: 1 + rng.Float64()*9})
		}
	}
	return g
}

func TestPropertyDijkstraTriangleInequality(t *testing.T) {
	// d(s,v) <= d(s,u) + w(u,v) for every edge (u,v): the fixpoint
	// condition of shortest paths.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(30), rng.Intn(40))
		src := g.Nodes()[rng.Intn(g.NumNodes())]
		dist, _ := g.ShortestPaths(src)
		for _, e := range g.Edges() {
			du, okU := dist[e.From]
			dv, okV := dist[e.To]
			if okU && (!okV || dv > du+e.Weight+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBFSLevelsAreShortestHops(t *testing.T) {
	// On unit weights, Dijkstra distance equals BFS level.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + rng.Intn(25)
		for i := 0; i < n; i++ {
			g.AddNode(NodeID(i), Coord{})
		}
		for k := 0; k < n*2; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				g.AddEdge(Edge{From: NodeID(i), To: NodeID(j), Weight: 1})
			}
		}
		src := NodeID(rng.Intn(n))
		levels := g.BFSLevels(src)
		dist, _ := g.ShortestPaths(src)
		if len(levels) != len(dist) {
			return false
		}
		for id, lvl := range levels {
			if dist[id] != float64(lvl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoundTripPreservesGraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(20), rng.Intn(20))
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g.Edges(), back.Edges()) && back.NumNodes() == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestShortestPathsMulti(t *testing.T) {
	g := line(6)
	// Seeds 0 (cost 5) and 3 (cost 0): node 5 is cheaper via seed 3.
	dist, _ := g.ShortestPathsMulti(map[NodeID]float64{0: 5, 3: 0})
	if dist[5] != 2 {
		t.Errorf("dist(5) = %v, want 2 (via seed 3)", dist[5])
	}
	if dist[1] != 6 {
		t.Errorf("dist(1) = %v, want 6 (via seed 0)", dist[1])
	}
	// Unknown and negative seeds are ignored.
	dist, _ = g.ShortestPathsMulti(map[NodeID]float64{99: 0, 2: -1})
	if len(dist) != 0 {
		t.Errorf("invalid seeds produced %v", dist)
	}
}

func TestPropertyMultiSourceEqualsMinOfSingles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(15), rng.Intn(20))
		nodes := g.Nodes()
		seeds := make(map[NodeID]float64)
		for i := 0; i < 1+rng.Intn(3); i++ {
			seeds[nodes[rng.Intn(len(nodes))]] = float64(rng.Intn(10))
		}
		multi, _ := g.ShortestPathsMulti(seeds)
		for _, v := range nodes {
			want := math.Inf(1)
			for s, c := range seeds {
				dist, _ := g.ShortestPaths(s)
				if d, ok := dist[v]; ok && c+d < want {
					want = c + d
				}
			}
			got, ok := multi[v]
			if math.IsInf(want, 1) != !ok {
				return false
			}
			if ok && math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
