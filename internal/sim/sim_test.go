package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tc"
)

// chainStore builds a loosely connected store over a transportation
// graph fragmented by the linear algorithm.
func chainStore(t testing.TB, seed int64, clusters, perCluster, frags int) (*dsa.Store, *graph.Graph) {
	t.Helper()
	g, err := gen.Transportation(gen.TransportConfig{
		Clusters: clusters,
		Cluster:  gen.Defaults(perCluster, seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: frags})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(res.Fragmentation, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st, g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultCostModel()); err == nil {
		t.Error("nil store accepted")
	}
	st, _ := chainStore(t, 1, 2, 8, 2)
	for _, cm := range []CostModel{
		{TupleRate: 0},
		{TupleRate: -5},
		{TupleRate: 1, MessageLatency: -1},
		{TupleRate: 1, TupleTransfer: -1},
	} {
		if _, err := New(st, cm); err == nil {
			t.Errorf("cost model %+v accepted", cm)
		}
	}
}

func TestRunMatchesStoreAnswer(t *testing.T) {
	st, g := chainStore(t, 7, 3, 10, 3)
	cl, err := New(st, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	src, dst := nodes[0], nodes[len(nodes)-1]
	rep, err := cl.Run(context.Background(), src, dst, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.RunPlanCtx(context.Background(), plan, dsa.EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reachable != want.Reachable {
		t.Fatalf("reachability mismatch: sim %v, store %v", rep.Reachable, want.Reachable)
	}
	if rep.Reachable && math.Abs(rep.Cost-want.Cost) > 1e-9 {
		t.Errorf("cost: sim %v, store %v", rep.Cost, want.Cost)
	}
}

func TestNoInterSiteMessages(t *testing.T) {
	// The defining communication property: every message involves the
	// coordinator; sites never talk to each other.
	st, g := chainStore(t, 11, 4, 10, 4)
	cl, err := New(st, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	rep, err := cl.Run(context.Background(), nodes[0], nodes[len(nodes)-1], dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InterSiteMessages != 0 {
		t.Errorf("inter-site messages = %d, want 0", rep.InterSiteMessages)
	}
	for _, m := range rep.Messages {
		if m.From != CoordinatorID && m.To != CoordinatorID {
			t.Errorf("site-to-site message %+v", m)
		}
	}
	// One task message and one result shipment per leg, nothing else.
	plan, err := st.NewPlan(nodes[0], nodes[len(nodes)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Legs) == 0 || len(rep.Messages) != 2*len(plan.Legs) {
		t.Errorf("%d messages for %d legs, want two per leg", len(rep.Messages), len(plan.Legs))
	}
	// The result shipments carry what the assembly reads of each leg's
	// table — its exits' facts — not the table.
	shipped := 0
	for _, m := range rep.Messages {
		shipped += m.Tuples
	}
	if shipped != rep.TuplesShipped {
		t.Errorf("result messages carry %d tuples, the assembly counts %d shipped", shipped, rep.TuplesShipped)
	}
}

func TestSelfQueryAndUnreachable(t *testing.T) {
	st, g := chainStore(t, 13, 2, 8, 2)
	cl, err := New(st, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	rep, err := cl.Run(context.Background(), nodes[0], nodes[0], dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reachable || rep.Cost != 0 {
		t.Errorf("self query = %+v", rep)
	}

	// Disconnected store.
	g2 := graph.New()
	e1 := graph.Edge{From: 0, To: 1, Weight: 1}
	e2 := graph.Edge{From: 5, To: 6, Weight: 1}
	g2.AddEdge(e1)
	g2.AddEdge(e2)
	fr, err := fragment.New(g2, [][]graph.Edge{{e1}, {e2}})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := dsa.Build(fr, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := New(st2, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := cl2.Run(context.Background(), 0, 6, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Reachable {
		t.Error("unreachable query reported reachable")
	}
}

func TestSimulatedClockConsistency(t *testing.T) {
	st, g := chainStore(t, 17, 4, 12, 4)
	cl, err := New(st, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	rep, err := cl.Run(context.Background(), nodes[0], nodes[len(nodes)-1], dsa.EngineSemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reachable {
		t.Skip("random graph pair unreachable")
	}
	if rep.ParallelElapsed != rep.Phase1Elapsed+rep.AssemblyElapsed {
		t.Error("ParallelElapsed must be Phase1 + Assembly")
	}
	var sum, max int64
	for _, b := range rep.SiteBusy {
		sum += int64(b)
		if int64(b) > max {
			max = int64(b)
		}
	}
	if int64(rep.Phase1Elapsed) != max {
		t.Errorf("Phase1Elapsed %v != max site busy %v", rep.Phase1Elapsed, max)
	}
	if rep.SequentialElapsed < rep.Phase1Elapsed {
		t.Error("sequential time cannot be below the critical path")
	}
	// The deterministic cost model on this fixed fixture, pinned so an
	// executor change cannot silently move the paper's speedup numbers.
	wantBusy := map[int]time.Duration{1: 2800 * time.Microsecond, 2: 3400 * time.Microsecond}
	if !reflect.DeepEqual(rep.SiteBusy, wantBusy) || rep.TuplesShipped != 2 {
		t.Errorf("SiteBusy %v, TuplesShipped %d; want %v, 2", rep.SiteBusy, rep.TuplesShipped, wantBusy)
	}
	if want := 6.24 / 7.48; math.Abs(rep.Speedup-want) > 1e-12 {
		t.Errorf("speedup = %v, want %v", rep.Speedup, want)
	}
}

func TestMultiSiteQueryUsesMultipleSites(t *testing.T) {
	st, g := chainStore(t, 19, 4, 10, 4)
	cl, err := New(st, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// Take endpoints in the first and last fragments.
	frags := st.Fragmentation().Fragments()
	src := frags[0].Nodes()[0]
	dst := frags[len(frags)-1].Nodes()[0]
	_ = g
	rep, err := cl.Run(context.Background(), src, dst, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SitesUsed < 2 {
		t.Errorf("sites used = %d, want ≥ 2", rep.SitesUsed)
	}
	if len(rep.SiteBusy) != rep.SitesUsed {
		t.Errorf("SiteBusy has %d entries for %d sites", len(rep.SiteBusy), rep.SitesUsed)
	}
}

func TestCentralizedElapsed(t *testing.T) {
	st, g := chainStore(t, 23, 3, 10, 3)
	cl, err := New(st, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	for _, e := range []dsa.Engine{dsa.EngineDijkstra, dsa.EngineSemiNaive, dsa.EngineBitset, dsa.EngineDense} {
		d, err := cl.CentralizedElapsed(context.Background(), nodes[0], e)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Errorf("engine %d: centralized elapsed = %v", e, d)
		}
	}
	if _, err := cl.CentralizedElapsed(context.Background(), nodes[0], dsa.Engine(9)); err == nil {
		t.Error("unknown engine accepted")
	}

	// The CSR baselines charge exactly what the kernels report on the
	// graph's CSR.
	kernel, err := tc.NewDenseGraph(g.CSR())
	if err != nil {
		t.Fatal(err)
	}
	sources := []graph.NodeID{nodes[0]}
	_, bitset, err := kernel.ReachFromCtx(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	_, dense, err := kernel.CostFromCtx(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	for e, stats := range map[dsa.Engine]tc.Stats{dsa.EngineBitset: bitset, dsa.EngineDense: dense} {
		sec := float64(stats.DerivedTuples+stats.ResultTuples) / cl.cost.TupleRate
		got, err := cl.CentralizedElapsed(context.Background(), nodes[0], e)
		if want := time.Duration(sec * float64(time.Second)); err != nil || got != want {
			t.Errorf("%v: centralized elapsed = %v, %v; want %v", e, got, err, want)
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []dsa.Engine{dsa.EngineSemiNaive, dsa.EngineBitset, dsa.EngineDense} {
		if _, err := cl.CentralizedElapsed(canceled, nodes[0], e); !errors.Is(err, dsa.ErrCanceled) {
			t.Errorf("%v on a canceled ctx: %v, want ErrCanceled", e, err)
		}
	}
}

// TestPropertySimAgreesWithGlobal: the simulated pipeline returns the
// global shortest-path cost on loosely connected stores.
func TestPropertySimAgreesWithGlobal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: 2 + rng.Intn(2),
			Cluster:  gen.Defaults(8, seed),
		})
		if err != nil {
			return false
		}
		res, err := linear.Fragment(g, linear.Options{NumFragments: 3})
		if err != nil {
			return false
		}
		st, err := dsa.Build(res.Fragmentation, dsa.Options{})
		if err != nil {
			return false
		}
		cl, err := New(st, DefaultCostModel())
		if err != nil {
			return false
		}
		nodes := g.Nodes()
		for q := 0; q < 3; q++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			rep, err := cl.Run(context.Background(), src, dst, dsa.EngineDijkstra)
			if err != nil {
				return false
			}
			want := g.Distance(src, dst)
			if rep.Reachable != !math.IsInf(want, 1) {
				return false
			}
			if rep.Reachable && math.Abs(rep.Cost-want) > 1e-9 {
				return false
			}
			if rep.InterSiteMessages != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestRunBatch(t *testing.T) {
	st, g := chainStore(t, 29, 4, 12, 4)
	cl, err := New(st, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunBatch(context.Background(), nil, dsa.EngineDijkstra); err == nil {
		t.Error("empty batch accepted")
	}
	nodes := g.Nodes()
	var queries []QueryPair
	for i := 0; i < 10; i++ {
		queries = append(queries, QueryPair{
			Source: nodes[(i*17)%len(nodes)],
			Target: nodes[(i*31+5)%len(nodes)],
		})
	}
	rep, err := cl.RunBatch(context.Background(), queries, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 10 {
		t.Errorf("queries = %d", rep.Queries)
	}
	if rep.Answered == 0 {
		t.Skip("no reachable pairs in random batch")
	}
	if rep.Utilization <= 0 || rep.Utilization > 1+1e-9 {
		t.Errorf("utilization = %v, want (0, 1]", rep.Utilization)
	}
	if rep.MeanSitesUsed < 1 {
		t.Errorf("mean sites = %v", rep.MeanSitesUsed)
	}
	// Small Dijkstra legs can make the parallel run slower than the
	// one-machine sum (fixed message latency dominates µs-scale work) —
	// that is a faithful outcome, so only positivity is asserted here.
	if rep.TotalSequential <= 0 || rep.TotalParallel <= 0 {
		t.Errorf("times = %v / %v", rep.TotalSequential, rep.TotalParallel)
	}
	s := rep.Format()
	if !strings.Contains(s, "utilization") {
		t.Errorf("Format() = %q", s)
	}
}

func TestUtilizationReflectsBalance(t *testing.T) {
	// A perfectly balanced two-fragment chain (identical halves) should
	// show higher utilization than a wildly unbalanced split of the
	// same path.
	g := graph.New()
	const n = 40
	for i := 0; i < n; i++ {
		g.AddBoth(graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1})
	}
	half := func(a, b int) []graph.Edge {
		var es []graph.Edge
		for i := a; i < b; i++ {
			e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1}
			es = append(es, e, e.Reverse())
		}
		return es
	}
	balanced, err := fragment.New(g, [][]graph.Edge{half(0, n/2), half(n/2, n)})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := fragment.New(g, [][]graph.Edge{half(0, 4), half(4, n)})
	if err != nil {
		t.Fatal(err)
	}
	util := func(fr *fragment.Fragmentation) float64 {
		st, err := dsa.Build(fr, dsa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := New(st, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.RunBatch(context.Background(), []QueryPair{{Source: 0, Target: n}}, dsa.EngineSemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Utilization
	}
	ub, us := util(balanced), util(skewed)
	if ub <= us {
		t.Errorf("balanced utilization %v not above skewed %v", ub, us)
	}
}

// TestRunBitsetEngineReachability: the simulated pipeline with the
// connectivity-only bitset engine reports the correct Reachable flag
// and charges positive busy time on multi-site queries.
func TestRunBitsetEngineReachability(t *testing.T) {
	st, g := chainStore(t, 29, 3, 10, 3)
	cl, err := New(st, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	frags := st.Fragmentation().Fragments()
	src := frags[0].Nodes()[0]
	dst := frags[len(frags)-1].Nodes()[0]
	rep, err := cl.Run(context.Background(), src, dst, dsa.EngineBitset)
	if err != nil {
		t.Fatal(err)
	}
	_, want := g.Reachable(src)[dst]
	if rep.Reachable != want {
		t.Errorf("Reachable = %v, want %v", rep.Reachable, want)
	}
	if !math.IsInf(rep.Cost, 1) {
		t.Errorf("Cost = %v, want +Inf (presence markers are not path costs)", rep.Cost)
	}
	if rep.InterSiteMessages != 0 {
		t.Errorf("inter-site messages = %d, want 0", rep.InterSiteMessages)
	}
}
