package center

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fragment"
	"repro/internal/gen"
	"repro/internal/graph"
)

// dumbbell builds two dense 5-cliques joined by one symmetric bridge
// edge: the obvious 2-fragmentation splits at the bridge.
func dumbbell() *graph.Graph {
	g := graph.New()
	addClique := func(first int) {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				g.AddBoth(graph.Edge{
					From: graph.NodeID(first + i), To: graph.NodeID(first + j), Weight: 1,
				})
			}
		}
	}
	addClique(0)
	addClique(10)
	for i := 0; i < 5; i++ {
		g.AddNode(graph.NodeID(i), graph.Coord{X: float64(i), Y: 0})
		g.AddNode(graph.NodeID(10+i), graph.Coord{X: 100 + float64(i), Y: 0})
	}
	g.AddBoth(graph.Edge{From: 4, To: 10, Weight: 1})
	return g
}

func TestOptionsValidation(t *testing.T) {
	g := dumbbell()
	cases := []Options{
		{NumFragments: 0},
		{NumFragments: -1},
		{NumFragments: 100},                             // more fragments than nodes
		{NumFragments: 2, CandidatePool: 1},             // pool < fragments
		{NumFragments: 2, Centers: []graph.NodeID{1}},   // wrong center count
		{NumFragments: 1, Centers: []graph.NodeID{999}}, // unknown center
	}
	for i, o := range cases {
		if _, err := Fragment(g, o); err == nil {
			t.Errorf("case %d: Options %+v accepted", i, o)
		}
	}
}

func TestFragmentTooFewEdges(t *testing.T) {
	g := graph.New()
	g.AddNode(0, graph.Coord{})
	g.AddNode(1, graph.Coord{})
	g.AddNode(2, graph.Coord{})
	g.AddEdge(graph.Edge{From: 0, To: 1, Weight: 1})
	if _, err := Fragment(g, Options{NumFragments: 2}); err == nil {
		t.Error("2 fragments from 1 edge accepted")
	}
}

func TestExplicitCentersDumbbell(t *testing.T) {
	g := dumbbell()
	fr, err := Fragment(g, Options{NumFragments: 2, Centers: []graph.NodeID{0, 14}})
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumFragments() != 2 {
		t.Fatalf("fragments = %d", fr.NumFragments())
	}
	c := fragment.Measure(fr)
	// Two 5-cliques of 20 directed edges each plus a 2-edge bridge:
	// balanced growth should land near 21 ± a few.
	if c.AF > 6 {
		t.Errorf("AF = %v; explicit opposite centers should balance", c.AF)
	}
	// The disconnection set should be small (the bridge region).
	if c.DS > 4 {
		t.Errorf("DS = %v; dumbbell should have a small disconnection set", c.DS)
	}
}

func TestSelectCentersDistributedSpreads(t *testing.T) {
	g := dumbbell()
	centers, err := SelectCenters(g, Options{NumFragments: 2, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 2 {
		t.Fatalf("centers = %v", centers)
	}
	// The two cliques are 100 apart; distributed centers must not both
	// come from the same clique.
	if (centers[0] < 10) == (centers[1] < 10) {
		t.Errorf("distributed centers %v are in the same clique", centers)
	}
}

func TestSelectCentersExplicitPassThrough(t *testing.T) {
	g := dumbbell()
	want := []graph.NodeID{3, 12}
	got, err := SelectCenters(g, Options{NumFragments: 2, Centers: want})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 12 {
		t.Errorf("centers = %v, want %v", got, want)
	}
}

func TestSelectCentersSeedDeterminism(t *testing.T) {
	g := dumbbell()
	a, err := SelectCenters(g, Options{NumFragments: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SelectCenters(g, Options{NumFragments: 2, Seed: 7})
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("same seed, different centers: %v vs %v", a, b)
	}
}

func TestVariantsProduceValidPartitions(t *testing.T) {
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.Defaults(15, 5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{RoundRobin, SmallestFirst} {
		fr, err := Fragment(g, Options{NumFragments: 4, Variant: v, Distributed: true})
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		total := 0
		for _, f := range fr.Fragments() {
			total += f.Size()
		}
		if total != g.NumEdges() {
			t.Errorf("variant %d: partition covers %d of %d edges", v, total, g.NumEdges())
		}
	}
}

func TestUnknownVariant(t *testing.T) {
	g := dumbbell()
	if _, err := Fragment(g, Options{NumFragments: 2, Variant: Variant(99)}); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestSmallestFirstBalancesSizes(t *testing.T) {
	// On a transportation graph, SmallestFirst should produce a size
	// balance at least as good as leaving everything to one fragment.
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.Defaults(20, 21)})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := Fragment(g, Options{NumFragments: 4, Variant: SmallestFirst, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	c := fragment.Measure(fr)
	if c.AF > c.F {
		t.Errorf("AF = %v exceeds F = %v; sizes wildly unbalanced", c.AF, c.F)
	}
}

func TestDisconnectedGraphReseeds(t *testing.T) {
	// Two components, 2 fragments with both centers in one component:
	// the reseed path must still assign every edge.
	g := graph.New()
	g.AddBoth(graph.Edge{From: 0, To: 1, Weight: 1})
	g.AddBoth(graph.Edge{From: 1, To: 2, Weight: 1})
	g.AddBoth(graph.Edge{From: 10, To: 11, Weight: 1})
	fr, err := Fragment(g, Options{NumFragments: 2, Centers: []graph.NodeID{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range fr.Fragments() {
		total += f.Size()
	}
	if total != g.NumEdges() {
		t.Errorf("disconnected graph: %d of %d edges assigned", total, g.NumEdges())
	}
}

func TestDistributedCentersImproveDeviation(t *testing.T) {
	// The Table 2 effect: on transportation graphs, distributed centers
	// should (on average) reduce the fragment-size deviation versus
	// random high-status centers.
	var randAF, distAF float64
	const trials = 6
	for s := int64(0); s < trials; s++ {
		g, err := gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.Defaults(20, 300+s)})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Fragment(g, Options{NumFragments: 4, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Fragment(g, Options{NumFragments: 4, Distributed: true})
		if err != nil {
			t.Fatal(err)
		}
		randAF += fragment.Measure(r).AF
		distAF += fragment.Measure(d).AF
	}
	if distAF > randAF*1.05 {
		t.Errorf("distributed centers AF sum = %v worse than random = %v", distAF, randAF)
	}
}

// TestPropertyAlwaysExactPartition: for random graphs, both variants
// always produce an exact edge partition with the requested fragment
// count (fragment.New validates partitions internally, so success of
// Fragment is itself the assertion; we re-verify coverage anyway).
func TestPropertyAlwaysExactPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := gen.Defaults(10+rng.Intn(20), seed)
		g, err := gen.General(cfg)
		if err != nil {
			return false
		}
		k := 2 + rng.Intn(3)
		if g.NumEdges() < k {
			return true
		}
		for _, v := range []Variant{RoundRobin, SmallestFirst} {
			fr, err := Fragment(g, Options{NumFragments: k, Variant: v, Seed: seed})
			if err != nil {
				return false
			}
			if fr.NumFragments() != k {
				return false
			}
			total := 0
			for _, f := range fr.Fragments() {
				total += f.Size()
			}
			if total != g.NumEdges() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAdjacentCentersStillFillAllFragments(t *testing.T) {
	// Regression for the empty-fragment case: centers on adjacent nodes
	// of a tiny graph, where initialisation claims every edge around
	// both centers for fragment 0.
	g := graph.New()
	g.AddBoth(graph.Edge{From: 0, To: 1, Weight: 1})
	g.AddBoth(graph.Edge{From: 1, To: 2, Weight: 1})
	fr, err := Fragment(g, Options{NumFragments: 2, Centers: []graph.NodeID{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumFragments() != 2 {
		t.Fatalf("fragments = %d, want 2", fr.NumFragments())
	}
	for _, f := range fr.Fragments() {
		if f.Size() == 0 {
			t.Error("empty fragment survived")
		}
	}
}
