package gen

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestEdgeProbability(t *testing.T) {
	// Decays with distance, scales with c1, clamps to [0,1].
	p0 := EdgeProbability(100, 0.1, 10, 0)
	p5 := EdgeProbability(100, 0.1, 10, 5)
	if p0 != 1.0 {
		t.Errorf("P(d=0) = %v, want clamp to 1 (100/100 e^0 = 1)", p0)
	}
	if p5 >= p0 {
		t.Errorf("probability should decay with distance: P(0)=%v, P(5)=%v", p0, p5)
	}
	want := 100.0 / 100.0 * math.Exp(-0.5)
	if math.Abs(p5-want) > 1e-12 {
		t.Errorf("P(5) = %v, want %v", p5, want)
	}
	if EdgeProbability(1e9, 0, 10, 0) != 1 {
		t.Error("probability should clamp to 1")
	}
}

func TestGeneralValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0},
		{Nodes: 5, Extent: -1},
		{Nodes: 5, C1: -1},
		{Nodes: 5, C2: -1},
	}
	for _, c := range cases {
		if _, err := General(c); err == nil {
			t.Errorf("General(%+v) accepted", c)
		}
	}
}

func TestGeneralDeterministic(t *testing.T) {
	cfg := Defaults(30, 42)
	g1, err := General(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := General(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() || g1.NumNodes() != g2.NumNodes() {
		t.Errorf("same seed produced different graphs: %v vs %v", g1, g2)
	}
}

func TestGeneralSeedChangesGraph(t *testing.T) {
	a, _ := General(Defaults(30, 1))
	b, _ := General(Defaults(30, 2))
	if a.NumEdges() == b.NumEdges() && len(a.Edges()) > 0 {
		// Edge counts can coincide; compare the actual edge sets.
		ae, be := a.Edges(), b.Edges()
		same := len(ae) == len(be)
		if same {
			for i := range ae {
				if ae[i] != be[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestGeneralSymmetric(t *testing.T) {
	g, err := General(Defaults(25, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if !g.HasEdge(e.To, e.From) {
			t.Fatalf("edge %v has no reverse", e)
		}
	}
}

func TestGeneralConnected(t *testing.T) {
	g, err := General(Defaults(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	if comps := g.ConnectedComponents(); len(comps) != 1 {
		t.Errorf("EnsureConnected graph has %d components", len(comps))
	}
}

func TestGeneralCoordinatesWithinExtent(t *testing.T) {
	cfg := Defaults(30, 9)
	cfg.Extent = 50
	g, err := General(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.Nodes() {
		c := g.Coord(id)
		if c.X < 0 || c.X >= 50 || c.Y < 0 || c.Y >= 50 {
			t.Fatalf("node %d at %+v outside extent", id, c)
		}
	}
}

func TestGeneralUnitWeights(t *testing.T) {
	cfg := Defaults(20, 5)
	cfg.UnitWeights = true
	g, err := General(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if e.Weight != 1 {
			t.Fatalf("unit-weight edge has weight %v", e.Weight)
		}
	}
}

func TestGeneralEdgeWeightsAreDistances(t *testing.T) {
	g, err := General(Defaults(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		want := g.EuclideanDistance(e.From, e.To)
		if want == 0 {
			want = 1
		}
		if math.Abs(e.Weight-want) > 1e-9 {
			t.Fatalf("edge %v weight != distance %v", e, want)
		}
	}
}

func TestDefaultLinks(t *testing.T) {
	if DefaultLinks(1) != nil {
		t.Error("single cluster should have no links")
	}
	l2 := DefaultLinks(2)
	if len(l2) != 1 {
		t.Errorf("DefaultLinks(2) = %v, want one link", l2)
	}
	l4 := DefaultLinks(4)
	if len(l4) != 4 {
		t.Errorf("DefaultLinks(4) = %v, want cycle of 4", l4)
	}
	total := 0
	for _, l := range l4 {
		total += l.Edges
	}
	if avg := float64(total) / 4; math.Abs(avg-2.25) > 1e-9 {
		t.Errorf("average link edges = %v, want 2.25 (paper §4.2.1)", avg)
	}
}

func TestTransportationValidation(t *testing.T) {
	base := Defaults(10, 1)
	cases := []TransportConfig{
		{Clusters: 0, Cluster: base},
		{Clusters: 2, Cluster: Config{Nodes: 0}},
		{Clusters: 2, Cluster: base, Links: []ClusterLink{{A: 0, B: 5, Edges: 1}}},
		{Clusters: 2, Cluster: base, Links: []ClusterLink{{A: 0, B: 0, Edges: 1}}},
		{Clusters: 2, Cluster: base, Links: []ClusterLink{{A: 0, B: 1, Edges: 0}}},
	}
	for i, c := range cases {
		if _, err := Transportation(c); err == nil {
			t.Errorf("case %d: Transportation(%+v) accepted", i, c)
		}
	}
}

func TestTransportationStructure(t *testing.T) {
	cfg := TransportConfig{Clusters: 4, Cluster: Defaults(25, 11)}
	g, err := Transportation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d, want 100", g.NumNodes())
	}
	// Count inter-cluster edges: they should be exactly the link spec
	// (4 links of 2+2+2+3 = 9 symmetric connections = 18 directed edges).
	cluster := func(id graph.NodeID) int { return int(id) / 25 }
	inter := 0
	for _, e := range g.Edges() {
		if cluster(e.From) != cluster(e.To) {
			inter++
		}
	}
	if inter != 18 {
		t.Errorf("inter-cluster directed edges = %d, want 18", inter)
	}
	if comps := g.ConnectedComponents(); len(comps) != 1 {
		t.Errorf("transportation graph has %d components, want 1", len(comps))
	}
}

func TestTransportationClusterDensity(t *testing.T) {
	// Inside a cluster, connectivity must be much higher than between
	// clusters — the defining property of transportation graphs (§3).
	g, err := Transportation(TransportConfig{Clusters: 4, Cluster: Defaults(25, 13)})
	if err != nil {
		t.Fatal(err)
	}
	cluster := func(id graph.NodeID) int { return int(id) / 25 }
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if cluster(e.From) == cluster(e.To) {
			intra++
		} else {
			inter++
		}
	}
	if intra < 10*inter {
		t.Errorf("intra = %d, inter = %d; clusters should dominate", intra, inter)
	}
}

func TestTransportationEdgeCountNearPaper(t *testing.T) {
	// The paper's Table 1 graphs: 4 clusters of 25 nodes, average 429
	// edges. Our defaults should land in the same regime (roughly
	// 300-600 directed edges) so the reproduced characteristics are
	// comparable.
	total := 0
	const trials = 5
	for s := int64(0); s < trials; s++ {
		g, err := Transportation(TransportConfig{Clusters: 4, Cluster: Defaults(25, 100+s)})
		if err != nil {
			t.Fatal(err)
		}
		total += g.NumEdges()
	}
	avg := float64(total) / trials
	if avg < 250 || avg > 700 {
		t.Errorf("average edges = %v, want within [250, 700] (paper: 429)", avg)
	}
}

func TestTransportationBorderPairsDistinct(t *testing.T) {
	// Each link's endpoints are used at most once, so DS nodes are
	// distinct.
	cfg := TransportConfig{
		Clusters: 2,
		Cluster:  Defaults(20, 17),
		Links:    []ClusterLink{{A: 0, B: 1, Edges: 3}},
	}
	g, err := Transportation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster := func(id graph.NodeID) int { return int(id) / 20 }
	seen := make(map[graph.NodeID]int)
	for _, e := range g.Edges() {
		if cluster(e.From) != cluster(e.To) {
			seen[e.From]++
			seen[e.To]++
		}
	}
	// 3 symmetric links = 6 directed edges; each endpoint appears twice
	// (once as From, once as To).
	if len(seen) != 6 {
		t.Errorf("border nodes = %d, want 6 distinct", len(seen))
	}
	for id, n := range seen {
		if n != 2 {
			t.Errorf("border node %d appears %d times, want 2", id, n)
		}
	}
}

func TestTransportationTooManyLinkEdges(t *testing.T) {
	cfg := TransportConfig{
		Clusters: 2,
		Cluster:  Config{Nodes: 2, C1: 0, C2: 0, Seed: 1},
		Links:    []ClusterLink{{A: 0, B: 1, Edges: 5}},
	}
	if _, err := Transportation(cfg); err == nil {
		t.Error("impossible link edge count accepted")
	}
}

// TestPropertyLocalEdgesDominate: with strong distance decay, generated
// edges are biased toward short distances — the defining behaviour of
// the probability function.
func TestPropertyLocalEdgesDominate(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{Nodes: 40, C1: 40 * 40 * 0.4, C2: 0.15, Extent: 100, Seed: seed}
		g, err := General(cfg)
		if err != nil || g.NumEdges() == 0 {
			return err == nil // empty graphs are fine, just unhelpful
		}
		// Average edge length must be well below the average pairwise
		// distance (~52 for uniform points in a 100-square).
		var sum float64
		for _, e := range g.Edges() {
			sum += g.EuclideanDistance(e.From, e.To)
		}
		avgEdge := sum / float64(g.NumEdges())
		var pairSum float64
		var pairs int
		nodes := g.Nodes()
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				pairSum += g.EuclideanDistance(nodes[i], nodes[j])
				pairs++
			}
		}
		avgPair := pairSum / float64(pairs)
		return avgEdge < avgPair
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNodeIDRanges(t *testing.T) {
	// Cluster i owns exactly the IDs [i*n, (i+1)*n).
	f := func(seed int64) bool {
		cfg := TransportConfig{Clusters: 3, Cluster: Defaults(8, seed)}
		g, err := Transportation(cfg)
		if err != nil {
			return false
		}
		if g.NumNodes() != 24 {
			return false
		}
		for _, id := range g.Nodes() {
			if id < 0 || id >= 24 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestGridValidation(t *testing.T) {
	for _, cfg := range []GridConfig{
		{Width: 0, Height: 5},
		{Width: 5, Height: -1},
		{Width: 5, Height: 5, DiagonalProb: 1.5},
		{Width: 5, Height: 5, DiagonalProb: -0.1},
	} {
		if _, err := Grid(cfg); err == nil {
			t.Errorf("Grid(%+v) accepted", cfg)
		}
	}
}

func TestGridStructure(t *testing.T) {
	g, err := Grid(GridConfig{Width: 4, Height: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d, want 12", g.NumNodes())
	}
	// Lattice edges: 3 horizontal per row × 3 rows + 4 vertical columns
	// × 2 = 9 + 8 = 17 symmetric = 34 directed.
	if g.NumEdges() != 34 {
		t.Errorf("edges = %d, want 34", g.NumEdges())
	}
	// Coordinates match lattice positions.
	c := g.Coord(graph.NodeID(1*4 + 2)) // (x=2, y=1)
	if c.X != 2 || c.Y != 1 {
		t.Errorf("coord = %+v, want (2, 1)", c)
	}
	if comps := g.ConnectedComponents(); len(comps) != 1 {
		t.Errorf("grid has %d components", len(comps))
	}
}

func TestGridDiagonals(t *testing.T) {
	plain, err := Grid(GridConfig{Width: 10, Height: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	diag, err := Grid(GridConfig{Width: 10, Height: 10, DiagonalProb: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Probability 1 adds a diagonal in every interior cell: 9×9 cells ×
	// 2 directed edges.
	if got, want := diag.NumEdges()-plain.NumEdges(), 2*81; got != want {
		t.Errorf("diagonal edges = %d, want %d", got, want)
	}
}
