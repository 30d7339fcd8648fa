package phe

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/gen"
	"repro/internal/graph"
)

// starStore builds a transportation graph fragmented by cluster with an
// inter-cluster highway fragment, and the hierarchy over it.
func starStore(t testing.TB, seed int64, clusters, perCluster int) (*Hierarchy, *graph.Graph) {
	t.Helper()
	g, err := gen.Transportation(gen.TransportConfig{
		Clusters: clusters,
		Cluster:  gen.Defaults(perCluster, seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	fr, highway, err := SplitByCluster(g, clusters, func(id graph.NodeID) int {
		return int(id) / perCluster
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(fr, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(st, highway)
	if err != nil {
		t.Fatal(err)
	}
	return h, g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Error("nil store accepted")
	}
	h, _ := starStore(t, 1, 3, 8)
	if _, err := New(h.Store(), -1); err == nil {
		t.Error("negative highway accepted")
	}
	if _, err := New(h.Store(), 99); err == nil {
		t.Error("out-of-range highway accepted")
	}
}

func TestSplitByClusterValidation(t *testing.T) {
	g := graph.New()
	g.AddBoth(graph.Edge{From: 0, To: 1, Weight: 1})
	if _, _, err := SplitByCluster(g, 0, func(graph.NodeID) int { return 0 }); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, _, err := SplitByCluster(g, 2, func(graph.NodeID) int { return 5 }); err == nil {
		t.Error("out-of-range clusterOf accepted")
	}
	// All edges intra-cluster: no highway possible.
	if _, _, err := SplitByCluster(g, 2, func(graph.NodeID) int { return 0 }); err == nil {
		t.Error("missing highway accepted")
	}
}

func TestSplitByClusterStructure(t *testing.T) {
	h, g := starStore(t, 5, 4, 10)
	fr := h.Store().Fragmentation()
	if fr.NumFragments() != 5 {
		t.Fatalf("fragments = %d, want 4 clusters + highway", fr.NumFragments())
	}
	// The highway fragment holds exactly the inter-cluster edges.
	inter := 0
	for _, e := range g.Edges() {
		if int(e.From)/10 != int(e.To)/10 {
			inter++
		}
	}
	if got := fr.Fragment(h.Highway()).Size(); got != inter {
		t.Errorf("highway size = %d, want %d", got, inter)
	}
	// Star fragmentation graph: loosely connected.
	if !fr.FragmentationGraph().IsLooselyConnected() {
		t.Error("cluster/highway split should be a star (acyclic)")
	}
	conn, total := h.Coverage()
	if conn != total || total != 4 {
		t.Errorf("coverage = %d/%d, want 4/4", conn, total)
	}
}

func TestChainsRouting(t *testing.T) {
	h, _ := starStore(t, 9, 3, 8)
	fr := h.Store().Fragmentation()
	// Interior nodes of clusters 0 and 1 (not on the highway).
	interior := func(cluster int) graph.NodeID {
		for _, id := range fr.Fragment(cluster).Nodes() {
			if len(fr.FragmentsOf(id)) == 1 {
				return id
			}
		}
		t.Fatalf("cluster %d has no interior node", cluster)
		return 0
	}
	a, b := interior(0), interior(1)
	chains, err := h.Chains(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 {
		t.Fatalf("chains = %v, want exactly one", chains)
	}
	want := []int{0, h.Highway(), 1}
	for i, f := range want {
		if chains[0][i] != f {
			t.Fatalf("chain = %v, want %v", chains[0], want)
		}
	}
	// Same-fragment route.
	same, err := h.Chains(a, interior(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 1 || len(same[0]) != 1 || same[0][0] != 0 {
		t.Errorf("same-cluster chains = %v", same)
	}
}

func TestChainsIsolatedErrors(t *testing.T) {
	h, g := starStore(t, 13, 3, 8)
	g.AddNode(999, graph.Coord{})
	if _, err := h.Chains(999, 0); err == nil {
		t.Error("isolated source accepted")
	}
	if _, err := h.Chains(0, 999); err == nil {
		t.Error("isolated target accepted")
	}
}

func TestQueryMatchesGlobal(t *testing.T) {
	h, g := starStore(t, 17, 4, 10)
	nodes := g.Nodes()
	rng := rand.New(rand.NewSource(99))
	for q := 0; q < 10; q++ {
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		res, err := h.Query(context.Background(), src, dst, dsa.EngineDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Distance(src, dst)
		if res.Reachable != !math.IsInf(want, 1) {
			t.Fatalf("reachability mismatch for %d→%d", src, dst)
		}
		if res.Reachable && math.Abs(res.Cost-want) > 1e-9 {
			t.Errorf("cost %d→%d = %v, want %v", src, dst, res.Cost, want)
		}
	}
}

func TestQueryBoundedChains(t *testing.T) {
	// Even with many clusters, PHE considers at most a handful of
	// chains — the whole point versus exhaustive enumeration.
	h, g := starStore(t, 21, 5, 8)
	nodes := g.Nodes()
	res, err := h.Query(context.Background(), nodes[0], nodes[len(nodes)-1], dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChainsConsidered > 4 {
		t.Errorf("chains considered = %d, want ≤ 4", res.ChainsConsidered)
	}
}

// TestPropertyPHEMatchesGlobalOnStar: on cluster/highway splits (star
// G'), PHE is exact for random graphs and queries.
func TestPropertyPHEMatchesGlobalOnStar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clusters := 2 + rng.Intn(3)
		per := 6 + rng.Intn(6)
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: clusters,
			Cluster:  gen.Defaults(per, seed),
		})
		if err != nil {
			return false
		}
		fr, highway, err := SplitByCluster(g, clusters, func(id graph.NodeID) int {
			return int(id) / per
		})
		if err != nil {
			return false
		}
		st, err := dsa.Build(fr, dsa.Options{})
		if err != nil {
			return false
		}
		h, err := New(st, highway)
		if err != nil {
			return false
		}
		nodes := g.Nodes()
		for q := 0; q < 3; q++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			res, err := h.Query(context.Background(), src, dst, dsa.EngineDijkstra)
			if err != nil {
				return false
			}
			want := g.Distance(src, dst)
			if res.Reachable != !math.IsInf(want, 1) {
				return false
			}
			if res.Reachable && math.Abs(res.Cost-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestQueryNoHierarchicalRoute(t *testing.T) {
	// Path of four single-edge fragments F0-F1-F2-F3 with the highway
	// declared at F0: F1 and F3 are not adjacent, F3 does not touch the
	// highway, so PHE finds no route — even though the nodes are
	// globally connected. This is the documented price of hierarchical
	// routing on a topology that lacks a real high-speed fragment.
	g := graph.New()
	var sets [][]graph.Edge
	for i := 0; i < 4; i++ {
		e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1}
		g.AddEdge(e)
		sets = append(sets, []graph.Edge{e})
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(fr, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, total := h.Coverage()
	if conn != 1 || total != 3 {
		t.Fatalf("coverage = %d/%d, want 1/3", conn, total)
	}
	// Node 1 is in F0/F1, node 4 in F3: no hierarchical route.
	res, err := h.Query(context.Background(), 1, 4, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Error("PHE found a route it should not have")
	}
	if res.ChainsConsidered != 0 {
		t.Errorf("chains considered = %d, want 0", res.ChainsConsidered)
	}
	// Direct adjacency still routes: node 1 (F0/F1) to node 3 (F2/F3)
	// via the F1-F2 adjacency... F1={1,2}, F3 edge {3,4}: node 3 is in
	// F2 and F3; F1 and F2 are adjacent.
	res2, err := h.Query(context.Background(), 1, 3, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Reachable || res2.Cost != 2 {
		t.Errorf("adjacent-fragment query = %+v, want cost 2", res2)
	}
}

func TestQueryHighwayEndpointChains(t *testing.T) {
	// Queries whose endpoint lives in the highway fragment itself use
	// the two-element highway chains.
	h, g := starStore(t, 31, 3, 8)
	fr := h.Store().Fragmentation()
	highwayNodes := fr.Fragment(h.Highway()).Nodes()
	var interior graph.NodeID
	found := false
	for _, id := range fr.Fragment(0).Nodes() {
		if len(fr.FragmentsOf(id)) == 1 {
			interior, found = id, true
			break
		}
	}
	if !found {
		t.Skip("no interior node")
	}
	src := highwayNodes[0]
	res, err := h.Query(context.Background(), src, interior, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Distance(src, interior)
	if res.Reachable && res.Cost != want {
		t.Errorf("cost = %v, global = %v", res.Cost, want)
	}
}

// TestConnectedMatchesGlobal: hierarchical Connected agrees with global
// reachability on star fragmentations, for every engine including the
// connectivity-only bitset kernel.
func TestConnectedMatchesGlobal(t *testing.T) {
	h, g := starStore(t, 11, 3, 10)
	nodes := g.Nodes()
	rng := rand.New(rand.NewSource(11))
	for q := 0; q < 8; q++ {
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		_, want := g.Reachable(src)[dst]
		if src == dst {
			want = true
		}
		for _, engine := range []dsa.Engine{dsa.EngineDijkstra, dsa.EngineSemiNaive, dsa.EngineBitset} {
			got, err := h.Connected(context.Background(), src, dst, engine)
			if err != nil {
				t.Fatalf("Connected(%d, %d, %v): %v", src, dst, engine, err)
			}
			if got != want {
				t.Errorf("Connected(%d, %d, %v) = %v, want %v", src, dst, engine, got, want)
			}
		}
	}
}

// TestQueryRefusesBitsetEngine: Query is a cost query and must refuse
// the connectivity-only engine.
func TestQueryRefusesBitsetEngine(t *testing.T) {
	h, g := starStore(t, 13, 3, 8)
	nodes := g.Nodes()
	if _, err := h.Query(context.Background(), nodes[0], nodes[len(nodes)-1], dsa.EngineBitset); err == nil {
		t.Error("Query accepted the connectivity-only bitset engine")
	}
}
