package dsa

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/fragment"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
)

// runPair is the whole pipeline for one pair — plan, run every leg,
// assemble — as every caller above this package drives it. parallel
// gives each involved site its own goroutine.
func runPair(st *Store, src, dst graph.NodeID, engine Engine, parallel bool) (*Result, error) {
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		return nil, err
	}
	return st.RunPlanCtx(context.Background(), plan, engine, parallel)
}

// reachable is runPair reduced to the paper's "Is A connected to B?".
func reachable(st *Store, src, dst graph.NodeID, engine Engine, parallel bool) (bool, error) {
	res, err := runPair(st, src, dst, engine, parallel)
	if err != nil {
		return false, err
	}
	return res.Reachable, nil
}

// pathStore builds a 3-fragment chain over the path 0-1-…-8 (symmetric
// unit edges): fragments {0..3}, {3..6}, {6..8}.
func pathStore(t *testing.T) (*Store, *graph.Graph) {
	t.Helper()
	g := graph.New()
	for i := 0; i < 9; i++ {
		g.AddNode(graph.NodeID(i), graph.Coord{X: float64(i)})
	}
	var sets [][]graph.Edge
	cut := []int{0, 3, 6, 8}
	for k := 0; k+1 < len(cut); k++ {
		var es []graph.Edge
		for i := cut[k]; i < cut[k+1]; i++ {
			e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1}
			rev := e.Reverse()
			g.AddEdge(e)
			g.AddEdge(rev)
			es = append(es, e, rev)
		}
		sets = append(sets, es)
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st, g
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("nil fragmentation accepted")
	}
	st, _ := pathStore(t)
	if _, err := Build(st.Fragmentation(), Options{MaxChains: -1}); err == nil {
		t.Error("negative MaxChains accepted")
	}
}

func TestStoreShape(t *testing.T) {
	st, _ := pathStore(t)
	if len(st.Sites()) != 3 {
		t.Fatalf("sites = %d", len(st.Sites()))
	}
	if !st.LooselyConnected() {
		t.Error("chain store should be loosely connected")
	}
	prep := st.Preprocessing()
	if prep.DisconnectionSets != 2 {
		t.Errorf("DS count = %d, want 2", prep.DisconnectionSets)
	}
	// DS = {3} and {6}: two distinct border nodes → two Dijkstra runs.
	if prep.DijkstraRuns != 2 {
		t.Errorf("Dijkstra runs = %d, want 2", prep.DijkstraRuns)
	}
	// Site 1 participates in both disconnection sets.
	if len(st.Site(1).Comp) != 2 {
		t.Errorf("site 1 comp infos = %d, want 2", len(st.Site(1).Comp))
	}
	if len(st.Site(0).Comp) != 1 {
		t.Errorf("site 0 comp infos = %d, want 1", len(st.Site(0).Comp))
	}
}

// TestCompInfoShortcutEdges: every complementary table is held once, by
// the store, as shortcut edges in strict (From, To) order between
// distinct nodes of its disconnection set, each carrying the global
// shortest-path cost; a site's Comp entries are those very tables.
func TestCompInfoShortcutEdges(t *testing.T) {
	g, err := gen.Grid(gen.GridConfig{Width: 6, Height: 6, DiagonalProb: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := linear.Fragment(g, linear.Options{NumFragments: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(lres.Fragmentation, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for p, ci := range st.CompTables() {
		ds := st.Fragmentation().DisconnectionSet(p.I, p.J)
		for k, e := range ci.Cost {
			if k > 0 {
				if prev := ci.Cost[k-1]; prev.From > e.From || prev.From == e.From && prev.To >= e.To {
					t.Fatalf("table %v not in strict (From, To) order at row %d: %v then %v", p, k, prev, e)
				}
			}
			if e.From == e.To || !slices.Contains(ds, e.From) || !slices.Contains(ds, e.To) {
				t.Errorf("table %v row %v does not join two distinct nodes of %v", p, e, ds)
			}
			if want := g.Distance(e.From, e.To); e.Weight != want {
				t.Errorf("table %v row %v: global distance is %v", p, e, want)
			}
		}
		rows += len(ci.Cost)
		if st.Site(p.I).Comp[p] != ci || st.Site(p.J).Comp[p] != ci {
			t.Errorf("sites %d and %d do not share the store's table %v", p.I, p.J, p)
		}
	}
	if rows < 4 {
		t.Fatalf("fixture too small: %d complementary rows", rows)
	}
	if got := st.Preprocessing().PairsStored; got != 2*rows {
		t.Errorf("PairsStored = %d, want %d (each table deployed at two sites)", got, 2*rows)
	}
}

func TestPlanSameFragment(t *testing.T) {
	st, _ := pathStore(t)
	p, err := st.NewPlan(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SameFragment || len(p.Chains) != 1 || len(p.Legs) != 1 {
		t.Errorf("plan = %+v", p)
	}
	if got := p.SitesInvolved(); len(got) != 1 || got[0] != 0 {
		t.Errorf("sites = %v, want [0]", got)
	}
}

func TestPlanChain(t *testing.T) {
	st, _ := pathStore(t)
	p, err := st.NewPlan(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.SameFragment {
		t.Error("0 and 8 are not in the same fragment")
	}
	if len(p.Chains) != 1 || len(p.Chains[0]) != 3 {
		t.Fatalf("chains = %v", p.Chains)
	}
	if len(p.Legs) != 3 {
		t.Errorf("legs = %v", p.Legs)
	}
	// Middle leg: entry DS01 = {3}, exit DS12 = {6}.
	mid := p.Legs[1]
	if len(mid.Entry) != 1 || mid.Entry[0] != 3 || len(mid.Exit) != 1 || mid.Exit[0] != 6 {
		t.Errorf("middle leg = %+v", mid)
	}
}

func TestPlanBorderNodeQuery(t *testing.T) {
	// Node 3 is in fragments 0 and 1; a query 3→8 should use the
	// shorter chain starting at fragment 1 as one of its chains.
	st, _ := pathStore(t)
	p, err := st.NewPlan(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.SameFragment {
		t.Error("3 and 8 do not share a fragment")
	}
	found := false
	for _, c := range p.Chains {
		if len(c) == 2 && c[0] == 1 && c[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("chains %v missing [1 2]", p.Chains)
	}
}

// TestPlanKeysRendering pins the two key renderings planning relies on:
// chains sort and deduplicate by exactly what fmt.Sprint prints (the
// order plans list chains in breaks BestChain ties), and leg keys keep
// their "site|entry,|exit," form.
func TestPlanKeysRendering(t *testing.T) {
	for _, chain := range [][]int{{0}, {3, 12, 7}, {10, 9}, {}} {
		if got, want := chainKey(chain), fmt.Sprint(chain); got != want {
			t.Errorf("chainKey(%v) = %q, want %q", chain, got, want)
		}
	}
	leg := Leg{SiteID: 12, Entry: []graph.NodeID{3, 40}, Exit: []graph.NodeID{-5}}
	if got, want := leg.key(), "12|3,40,|-5,"; got != want {
		t.Errorf("leg key = %q, want %q", got, want)
	}
}

func TestPlanErrors(t *testing.T) {
	st, g := pathStore(t)
	if _, err := st.NewPlan(99, 0); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := st.NewPlan(0, 99); err == nil {
		t.Error("unknown target accepted")
	}
	// A node of the graph that no fragment holds is not unknown: it is
	// unreachable, except from itself.
	g.AddNode(50, graph.Coord{})
	for _, q := range [][2]graph.NodeID{{50, 0}, {0, 50}, {50, 50}} {
		p, err := st.NewPlan(q[0], q[1])
		if err != nil || len(p.Chains) != 0 || len(p.Legs) != 0 {
			t.Fatalf("NewPlan(%d, %d) = %+v, %v; want a chain-less plan", q[0], q[1], p, err)
		}
		res, err := st.RunPlanCtx(context.Background(), p, EngineDijkstra, false)
		if err != nil || res.Reachable != (q[0] == q[1]) {
			t.Errorf("isolated %d→%d: %+v, %v; want Reachable=%v", q[0], q[1], res, err, q[0] == q[1])
		}
	}
}

func TestQueryChainCost(t *testing.T) {
	st, _ := pathStore(t)
	for _, engine := range []Engine{EngineDijkstra, EngineSemiNaive} {
		res, err := runPair(st, 0, 8, engine, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reachable || res.Cost != 8 {
			t.Errorf("engine %d: cost = %v, want 8", engine, res.Cost)
		}
		if len(res.BestChain) != 3 {
			t.Errorf("best chain = %v", res.BestChain)
		}
		if len(res.PerSite) != 3 {
			t.Errorf("per-site work = %v, want 3 sites", res.PerSite)
		}
		if res.Assembly.Joins == 0 {
			t.Error("assembly did no joins")
		}
	}
}

func TestQuerySameFragmentUsesOneSite(t *testing.T) {
	st, _ := pathStore(t)
	res, err := runPair(st, 0, 2, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SameFragment || res.Cost != 2 {
		t.Errorf("res = %+v", res)
	}
	if len(res.PerSite) != 1 {
		t.Errorf("same-fragment query touched %d sites", len(res.PerSite))
	}
}

func TestQuerySourceEqualsTarget(t *testing.T) {
	st, _ := pathStore(t)
	res, err := runPair(st, 4, 4, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || res.Cost != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestQueryUnreachable(t *testing.T) {
	// Two disconnected single-edge fragments.
	g := graph.New()
	e1 := graph.Edge{From: 0, To: 1, Weight: 1}
	e2 := graph.Edge{From: 10, To: 11, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1}, {e2}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPair(st, 0, 11, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable || !math.IsInf(res.Cost, 1) {
		t.Errorf("res = %+v, want unreachable", res)
	}
	ok, err := reachable(st, 0, 11, EngineDijkstra, false)
	if err != nil || ok {
		t.Errorf("Connected = %v, %v", ok, err)
	}
}

func TestQueryDirectedUnreachable(t *testing.T) {
	// One-way path 0→1→2, fragments {0→1}, {1→2}: 2 cannot reach 0.
	g := graph.New()
	e1 := graph.Edge{From: 0, To: 1, Weight: 1}
	e2 := graph.Edge{From: 1, To: 2, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1}, {e2}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPair(st, 2, 0, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Error("directed reverse query should be unreachable")
	}
	fwd, err := runPair(st, 0, 2, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if !fwd.Reachable || fwd.Cost != 2 {
		t.Errorf("forward = %+v", fwd)
	}
}

func TestQueryUnknownEngine(t *testing.T) {
	st, _ := pathStore(t)
	if _, err := runPair(st, 0, 8, Engine(42), false); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestQueryParallelMatchesSequential(t *testing.T) {
	st, _ := pathStore(t)
	seq, err := runPair(st, 0, 8, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runPair(st, 0, 8, EngineDijkstra, true)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Cost != par.Cost || seq.Reachable != par.Reachable {
		t.Errorf("sequential %v vs parallel %v", seq.Cost, par.Cost)
	}
	if par.MessagesSent != seq.MessagesSent {
		t.Errorf("messages: %d vs %d", par.MessagesSent, seq.MessagesSent)
	}
}

func TestShortcutCapturesOutsidePath(t *testing.T) {
	// The Holland property: a same-fragment query whose true shortest
	// path leaves the fragment must still be answered exactly by the
	// single site, via complementary information.
	//
	// Fragment 0: expensive direct edge 0-1 (cost 10) plus border
	// nodes 0, 1 shared with fragment 1, where a cheap detour 0-2-1
	// (cost 2) lives.
	g := graph.New()
	exp := graph.Edge{From: 0, To: 1, Weight: 10}
	expR := exp.Reverse()
	d1 := graph.Edge{From: 0, To: 2, Weight: 1}
	d1R := d1.Reverse()
	d2 := graph.Edge{From: 2, To: 1, Weight: 1}
	d2R := d2.Reverse()
	for _, e := range []graph.Edge{exp, expR, d1, d1R, d2, d2R} {
		g.AddEdge(e)
	}
	fr, err := fragment.New(g, [][]graph.Edge{{exp, expR}, {d1, d1R, d2, d2R}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPair(st, 0, 1, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 {
		t.Errorf("cost = %v, want 2 (via complementary info)", res.Cost)
	}
	if !res.SameFragment {
		t.Error("0 and 1 share fragment 0; plan should be same-fragment")
	}
}

func TestZeroCostBorderTraversal(t *testing.T) {
	// Source is itself the disconnection-set node: entering and leaving
	// the middle fragment at the same node must cost 0, not break the
	// chain.
	st, _ := pathStore(t)
	res, err := runPair(st, 3, 6, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || res.Cost != 3 {
		t.Errorf("res.Cost = %v, want 3", res.Cost)
	}
}

func TestMaxChainsTruncation(t *testing.T) {
	// Ring of 4 single-edge fragments: two chains between opposite
	// fragments; MaxChains 1 truncates.
	g := graph.New()
	var sets [][]graph.Edge
	for i := 0; i < 4; i++ {
		e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID((i + 1) % 4), Weight: 1}
		g.AddEdge(e)
		sets = append(sets, []graph.Edge{e})
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{MaxChains: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.NewPlan(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Truncated {
		t.Error("plan should report truncation")
	}
	res, err := runPair(st, 0, 2, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !res.Reachable {
		t.Errorf("res = %+v", res)
	}
}

// buildLinearStore fragments a random transportation graph with the
// linear algorithm (guaranteed loosely connected) and builds the store.
func buildLinearStore(seed int64, clusters, perCluster, frags int) (*Store, *graph.Graph, error) {
	g, err := gen.Transportation(gen.TransportConfig{
		Clusters: clusters,
		Cluster:  gen.Defaults(perCluster, seed),
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: frags})
	if err != nil {
		return nil, nil, err
	}
	st, err := Build(res.Fragmentation, Options{})
	if err != nil {
		return nil, nil, err
	}
	return st, g, nil
}

// TestPropertyDSAMatchesGlobalDijkstra: on loosely connected stores, on
// cyclic ones and for the bitset engine's marker-1 facts, the assembly
// fold agrees exactly with the relational reference it replaced. (That
// the folded answers are Dijkstra's is internal/oracle's rule 2, for
// every engine and every deployment.)
func TestPropertyDSAMatchesGlobalDijkstra(t *testing.T) {
	foldOK := func(st *Store, g *graph.Graph, rng *rand.Rand, queries int) bool {
		nodes := g.Nodes()
		for q := 0; q < queries; q++ {
			src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			for _, engine := range []Engine{EngineDijkstra, EngineSemiNaive, EngineBitset} {
				if ok, err := foldMatchesReference(st, src, dst, engine); err != nil || !ok {
					return false
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, g, err := buildLinearStore(seed, 2+rng.Intn(2), 8+rng.Intn(6), 2+rng.Intn(3))
		if err != nil || !st.LooselyConnected() { // linear guarantees this
			return false
		}
		if !foldOK(st, g, rng, 4) {
			return false
		}
		fr, err := applyTopologies[2].build(seed) // center-based: several chains a pair
		if err != nil {
			return false
		}
		cyc, err := Build(fr, Options{MaxChains: 50})
		return err == nil && foldOK(cyc, fr.Base(), rng, 3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertySameFragmentSingleSite: the Holland property holds for
// every same-fragment query on loosely connected stores — one site,
// exact answer.
func TestPropertySameFragmentSingleSite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, g, err := buildLinearStore(seed, 2, 10, 3)
		if err != nil {
			return false
		}
		for _, frag := range st.Fragmentation().Fragments() {
			nodes := frag.Nodes()
			if len(nodes) < 2 {
				continue
			}
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			res, err := runPair(st, src, dst, EngineDijkstra, false)
			if err != nil {
				return false
			}
			if !res.SameFragment && src != dst {
				return false
			}
			want := g.Distance(src, dst)
			if res.Reachable && math.Abs(res.Cost-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestComputeCompAllocs: the preprocessing allocates per global search
// the table rows the search keeps and a small constant — nothing that
// grows with the graph (the parent filled three graph-sized maps per
// search and boxed every heap push: thousands per search here). What is
// graph-sized is allocated once per computeComp (the adjacency
// snapshot) or once per worker (its rows).
func TestComputeCompAllocs(t *testing.T) {
	g, err := gen.Grid(gen.GridConfig{Width: 32, Height: 32, DiagonalProb: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fragmentation
	dss := fr.DisconnectionSets()
	rows := 0
	for _, nodes := range dss {
		rows += len(nodes)
	}
	for _, problem := range []Problem{ProblemShortestPath, ProblemReachability} {
		searches := 0
		allocs := testing.AllocsPerRun(3, func() {
			if _, searches, err = computeComp(context.Background(), fr.Base(), dss, problem); err != nil {
				t.Fatal(err)
			}
		})
		if searches < 60 {
			t.Fatalf("%v: only %d global searches; the budget needs a wide disconnection set", problem, searches)
		}
		fixed := 64 + 32*runtime.GOMAXPROCS(0) + 8*len(dss)
		if budget := float64(fixed + rows + searches); allocs > budget {
			t.Errorf("%v: %.0f allocations for %d searches keeping %d rows (%.1f per search), want at most %.0f",
				problem, allocs, searches, rows, allocs/float64(searches), budget)
		} else {
			t.Logf("%v: %.0f allocations, %d searches, %d rows", problem, allocs, searches, rows)
		}
	}
}
