package graph

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// neighbors returns the row of id in the undirected snapshot u, as ids.
func neighbors(u *CSR, id NodeID) []NodeID {
	k, _ := u.Row(id)
	var ids []NodeID
	for _, r := range u.To[u.Off[k]:u.Off[k+1]] {
		ids = append(ids, u.IDs[r])
	}
	return ids
}

func TestGradeAndNeighbors(t *testing.T) {
	g := New()
	// Star: center 0 connected symmetrically to 1..4, and a one-way
	// edge into the center.
	for i := 1; i <= 4; i++ {
		g.AddBoth(Edge{From: 0, To: NodeID(i), Weight: 1})
	}
	g.AddEdge(Edge{From: 5, To: 0, Weight: 1})
	u := g.CSR().Undirected()
	if got := neighbors(u, 0); !reflect.DeepEqual(got, []NodeID{1, 2, 3, 4, 5}) {
		t.Errorf("neighbours of the center = %v, want [1 2 3 4 5]", got)
	}
	if got := neighbors(u, 1); !reflect.DeepEqual(got, []NodeID{0}) {
		t.Errorf("neighbours of a leaf = %v, want [0]", got)
	}
	if got := neighbors(u, 5); !reflect.DeepEqual(got, []NodeID{0}) {
		t.Errorf("neighbours of the one-way tail = %v, want [0]", got)
	}
}

func TestGradeIgnoresSelfLoop(t *testing.T) {
	g := New()
	g.AddEdge(Edge{From: 1, To: 1})
	g.AddBoth(Edge{From: 1, To: 2})
	g.AddEdge(Edge{From: 1, To: 2, Weight: 3})
	if got := neighbors(g.CSR().Undirected(), 1); !reflect.DeepEqual(got, []NodeID{2}) {
		t.Errorf("neighbours with a self-loop and a parallel edge = %v, want [2]", got)
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
	if want := map[NodeID]NodeID{2: 1, 3: 2}; !reflect.DeepEqual(pred, want) {
		t.Errorf("pred = %v, want %v", pred, want)
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := line(3)
	g.AddNode(42, Coord{})
	dist, _ := g.ShortestPaths(0)
	if _, ok := dist[42]; ok {
		t.Error("isolated node should be absent from dist")
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
		{"NaN edge weight", "edge 1 2 NaN\n"},
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
	for _, in := range []string{
		"node 1 0 0\nnode 2 1 0\nedge 1 x\n",
		"node 1 0 0\nedge 1 2 1\nedge 2 1 nan\n",
	} {
		_, err := Read(strings.NewReader(in))
		if err == nil {
			t.Fatalf("Read(%q) succeeded, want error", in)
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("error %q does not name line 3", err)
		}
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

// seedRow is seeds as a distance row over c: +Inf but at the seeds
// that are nodes of c.
func seedRow(c *CSR, seeds map[NodeID]float64) []float64 {
	row := slices.Repeat([]float64{Inf}, len(c.IDs))
	for id, cost := range seeds {
		if k, ok := c.Row(id); ok {
			row[k] = cost
		}
	}
	return row
}

func TestShortestPathsMulti(t *testing.T) {
	c := line(6).CSR() // row k is node k
	// Seeds 0 (cost 5) and 3 (cost 0): node 5 is cheaper via seed 3.
	dist, pred := c.SeededSearch(seedRow(c, map[NodeID]float64{0: 5, 3: 0}))
	if dist[5] != 2 || pred[5] != 4 {
		t.Errorf("dist(5) = %v from row %d, want 2 from 4 (via seed 3)", dist[5], pred[5])
	}
	if dist[1] != 6 {
		t.Errorf("dist(1) = %v, want 6 (via seed 0)", dist[1])
	}
	if pred[0] != -1 || pred[3] != -1 {
		t.Errorf("seeds have predecessors %d, %d", pred[0], pred[3])
	}
	// Unknown, negative and non-finite seeds are ignored.
	row := seedRow(c, map[NodeID]float64{99: 0, 2: -1, 4: math.NaN(), 5: math.Inf(-1)})
	dist, pred = c.SeededSearch(row)
	for k := range dist {
		if dist[k] != Inf || pred[k] != -1 {
			t.Errorf("invalid seeds reached row %d at %v from %d", k, dist[k], pred[k])
		}
	}
	if &dist[0] != &row[0] {
		t.Error("SeededSearch did not search in place")
	}
	// Seeds 1 and 2 tie at 3: the lower row wins, on every call.
	g := New()
	g.AddEdge(Edge{From: 2, To: 3, Weight: 1})
	g.AddEdge(Edge{From: 1, To: 3, Weight: 1})
	c = g.CSR()
	for range 50 {
		if _, pred := c.SeededSearch(seedRow(c, map[NodeID]float64{2: 0, 1: 0})); c.IDs[pred[2]] != 1 {
			t.Fatalf("node 3 reached from %d, want seed 1", c.IDs[pred[2]])
		}
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
		c := g.CSR()
		multi, _ := c.SeededSearch(seedRow(c, seeds))
		for k, v := range c.IDs {
			want := math.Inf(1)
			for s, cost := range seeds {
				dist, _ := g.ShortestPaths(s)
				if d, ok := dist[v]; ok && cost+d < want {
					want = cost + d
				}
			}
			if got := multi[k]; got != want && math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
