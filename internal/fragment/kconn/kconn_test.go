package kconn

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// clique adds a symmetric clique over the given nodes.
func clique(g *graph.Graph, ids ...graph.NodeID) {
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			g.AddBoth(graph.Edge{From: ids[i], To: ids[j], Weight: 1})
		}
	}
}

// ringGraph builds the symmetric n-cycle.
func ringGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddBoth(graph.Edge{From: graph.NodeID(i), To: graph.NodeID((i + 1) % n), Weight: 1})
	}
	return g
}

func TestNodeDisjointPathsBasics(t *testing.T) {
	g := ringGraph(6)
	if k := NodeDisjointPaths(g, 0, 3); k != 2 {
		t.Errorf("ring opposite pair = %d, want 2", k)
	}
	if k := NodeDisjointPaths(g, 0, 0); k != 0 {
		t.Errorf("self pair = %d, want 0", k)
	}
	if k := NodeDisjointPaths(g, 0, 99); k != 0 {
		t.Errorf("missing node = %d, want 0", k)
	}
}

func TestNodeDisjointPathsClique(t *testing.T) {
	g := graph.New()
	clique(g, 0, 1, 2, 3, 4)
	// K5: between any pair there are 4 node-distinct paths (the direct
	// edge plus one through each other node).
	if k := NodeDisjointPaths(g, 0, 4); k != 4 {
		t.Errorf("K5 pair = %d, want 4", k)
	}
}

func TestNodeDisjointPathsBridge(t *testing.T) {
	// Two triangles joined through a single cut node 10.
	g := graph.New()
	clique(g, 0, 1, 10)
	clique(g, 10, 20, 21)
	if k := NodeDisjointPaths(g, 0, 20); k != 1 {
		t.Errorf("across cut node = %d, want 1", k)
	}
	if k := NodeDisjointPaths(g, 0, 1); k != 2 {
		t.Errorf("within triangle = %d, want 2", k)
	}
}

func TestKConnectivity(t *testing.T) {
	if k := KConnectivity(ringGraph(5)); k != 2 {
		t.Errorf("ring = %d, want 2", k)
	}
	g := graph.New()
	clique(g, 0, 1, 2, 3)
	if k := KConnectivity(g); k != 3 {
		t.Errorf("K4 = %d, want 3", k)
	}
	// Disconnected graph.
	g.AddNode(99, graph.Coord{})
	if k := KConnectivity(g); k != 0 {
		t.Errorf("disconnected = %d, want 0", k)
	}
	// Trivial graphs.
	if KConnectivity(graph.New()) != 0 {
		t.Error("empty graph should have k = 0")
	}
}

func TestRelevantNodesCutVertex(t *testing.T) {
	// Two K4s sharing only the cut node 10: the paper's intuition says
	// 10 is the relevant node — removing it leaves two well-connected
	// cliques.
	g := graph.New()
	clique(g, 0, 1, 2, 10)
	clique(g, 10, 20, 21, 22)
	got := RelevantNodes(g)
	if !reflect.DeepEqual(got, []graph.NodeID{10}) {
		t.Errorf("relevant nodes = %v, want [10]", got)
	}
}

func TestRelevantNodesCliqueHasNone(t *testing.T) {
	g := graph.New()
	clique(g, 0, 1, 2, 3, 4)
	// Removing any node of K5 leaves K4 with connectivity 3 == K5's 4−1
	// < 4... K5 baseline is 4; K4 connectivity is 3, which does not
	// increase it, so no node is relevant.
	if got := RelevantNodes(g); got != nil {
		t.Errorf("relevant nodes of K5 = %v, want none", got)
	}
}

func TestRelevantNodesOnIdealTransportationGraph(t *testing.T) {
	// The rejected approach's intended behaviour, on the idealised
	// transportation graph it was designed around: two uniformly dense
	// clusters (K5s) joined by a single inter-cluster edge 0–10. The
	// border nodes 0 and 10 are exactly the relevant nodes.
	g := graph.New()
	clique(g, 0, 1, 2, 3, 4)
	clique(g, 10, 11, 12, 13, 14)
	g.AddBoth(graph.Edge{From: 0, To: 10, Weight: 1})
	got := RelevantNodes(g)
	if !reflect.DeepEqual(got, []graph.NodeID{0, 10}) {
		t.Errorf("relevant nodes = %v, want [0 10]", got)
	}
}

func TestRelevantNodesBrittleOnRandomClusters(t *testing.T) {
	// The paper's complaint made executable: on *generated* clusters —
	// which contain their own low-degree nodes and bridges — the
	// analysis typically finds no relevant nodes at all, because
	// removing a border node does not raise the minimum connectivity
	// above the baseline set by the weakest intra-cluster pair. ("Even
	// for 'simple' graphs as depicted in Fig. 3 we would run into
	// problems.")
	g, err := gen.Transportation(gen.TransportConfig{
		Clusters: 2,
		Cluster:  gen.Defaults(8, 5),
		Links:    []gen.ClusterLink{{A: 0, B: 1, Edges: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if k := KConnectivity(g); k != 1 {
		t.Skipf("unexpected baseline connectivity %d", k)
	}
	if got := RelevantNodes(g); len(got) != 0 {
		// Not an error — just not the documented brittleness; make the
		// outcome visible either way.
		t.Logf("random clusters did yield relevant nodes: %v", got)
	}
}

// TestPropertyMengerBounds: for random graphs, the number of
// node-disjoint paths is at most min(deg(s), deg(t)) and at least 1
// when s and t are in the same component.
func TestPropertyMengerBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.General(gen.Defaults(6+rng.Intn(8), seed))
		if err != nil {
			return false
		}
		nodes := g.Nodes()
		// grade is a node's undirected degree.
		und := g.CSR().Undirected()
		grade := func(id graph.NodeID) int {
			k, _ := und.Row(id)
			return int(und.Off[k+1] - und.Off[k])
		}
		for q := 0; q < 4; q++ {
			s := nodes[rng.Intn(len(nodes))]
			u := nodes[rng.Intn(len(nodes))]
			if s == u {
				continue
			}
			k := NodeDisjointPaths(g, s, u)
			ds, du := grade(s), grade(u)
			bound := ds
			if du < bound {
				bound = du
			}
			if k > bound {
				return false
			}
			if _, reach := g.Reachable(s)[u]; reach && k < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertySymmetry: node-disjoint path counts are symmetric on the
// undirected view.
func TestPropertySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.General(gen.Defaults(6+rng.Intn(6), seed))
		if err != nil {
			return false
		}
		nodes := g.Nodes()
		s := nodes[rng.Intn(len(nodes))]
		u := nodes[rng.Intn(len(nodes))]
		return NodeDisjointPaths(g, s, u) == NodeDisjointPaths(g, u, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
