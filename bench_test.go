// Package benches holds the repository-root benchmark harness: one
// benchmark per table and measured claim of the ICDE'93 paper (package
// internal/bench holds the experiments; `tcbench -h` lists them). Each
// experiment benchmark prints the paper-style table, paper numbers
// beside measured ones, once, then times the regeneration; the
// Benchmark* functions further down micro-benchmark the substrates.
//
// Run with:
//
//	go test -bench=. -benchmem
package benches

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/fragment/bea"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/tc"
)

// printOnce guards the one-time table printouts across -benchtime
// iterations.
var printOnce sync.Map

// printTable prints s the first time key is seen.
func printTable(key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(s)
	}
}

// BenchmarkTable1 regenerates Table 1 (three algorithms on 4×25
// transportation graphs) and reports the headline characteristics as
// custom metrics.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Table1(3, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table1", tbl.Format())
		for _, r := range tbl.Rows {
			if r.Algorithm == "bond-energy" {
				b.ReportMetric(r.C.DS, "beaDS")
			}
			if r.Algorithm == "linear" {
				b.ReportMetric(r.C.DS, "linDS")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (distributed centers, 4×150).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Table2(2, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table2", tbl.Format())
		for _, r := range tbl.Rows {
			if r.Algorithm == "distributed centers" {
				b.ReportMetric(r.C.DS, "distDS")
				b.ReportMetric(r.C.AF, "distAF")
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (four variants on 100-node
// general graphs).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Table3(3, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table3", tbl.Format())
		for _, r := range tbl.Rows {
			if r.Algorithm == "bond-energy" {
				b.ReportMetric(r.C.DS, "beaDS")
				b.ReportMetric(r.C.AF, "beaAF")
			}
		}
	}
}

// BenchmarkSpeedup regenerates the §2.1 linear speed-up series on
// cluster chains of 2–8 sites.
func BenchmarkSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Speedup(50, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("speedup", r.Format())
		if n := len(r.Points); n > 0 {
			b.ReportMetric(r.Points[n-1].Speedup, "speedup8")
		}
	}
}

// BenchmarkIterations regenerates the reduced-iterations series (§2.1:
// iterations track fragment diameter, not graph diameter).
func BenchmarkIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Iterations(4, 20, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("iterations", r.Format())
		if n := len(r.Points); n > 0 {
			b.ReportMetric(r.Points[n-1].MaxSiteIterations, "siteIters")
			b.ReportMetric(r.Points[0].GlobalIterations, "globalIters")
		}
	}
}

// BenchmarkFig8StartNodes regenerates the Fig. 8 start-node-choice
// comparison.
func BenchmarkFig8StartNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig8(3, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig8", r.Format())
		b.ReportMetric(r.AlongDS, "alongDS")
		b.ReportMetric(r.AcrossDS, "acrossDS")
	}
}

// BenchmarkPHE regenerates the §5 parallel-hierarchical-evaluation
// comparison on fully linked cluster topologies.
func BenchmarkPHE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.PHE(6, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("phe", r.Format())
		if n := len(r.Points); n > 0 {
			b.ReportMetric(r.Points[n-1].DSAChains, "dsaChains")
			b.ReportMetric(r.Points[n-1].PHEChains, "pheChains")
		}
	}
}

// BenchmarkImpact regenerates the §5 follow-up experiment: which
// fragmentation characteristic dominates actual parallel query
// performance (the paper's announced PRISMA experiments, on the
// simulated machine).
func BenchmarkImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Impact(3, 6, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("impact", r.Format())
	}
}

// BenchmarkAmortize regenerates the preprocessing-amortisation analysis
// (§2.1: "pre-processing costs may be amortized over many queries").
func BenchmarkAmortize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Amortize(5, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("amortize", r.Format())
		if n := len(r.Points); n > 0 {
			b.ReportMetric(float64(r.Points[n-1].BreakEvenQueries), "breakEven")
		}
	}
}

// BenchmarkKConnCost regenerates the rejected-approach cost comparison
// (§3: the k-connectivity analysis "is very computation intensive").
func BenchmarkKConnCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.KConnCost(42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("kconn", r.Format())
	}
}

// BenchmarkAblationBEAThreshold sweeps the bond-energy threshold.
func BenchmarkAblationBEAThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := bench.AblationBEAThreshold(2, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("abl-bea-threshold", a.Format())
	}
}

// BenchmarkAblationBEAMode compares threshold vs local-minimum
// splitting.
func BenchmarkAblationBEAMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := bench.AblationBEAMode(2, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("abl-bea-mode", a.Format())
	}
}

// BenchmarkAblationCenterVariant compares the two growth schedules.
func BenchmarkAblationCenterVariant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := bench.AblationCenterVariant(2, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("abl-center-variant", a.Format())
	}
}

// BenchmarkAblationCenterPool sweeps the candidate pool size.
func BenchmarkAblationCenterPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := bench.AblationCenterPool(2, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("abl-center-pool", a.Format())
	}
}

// BenchmarkAblationLinearStartCount sweeps the linear algorithm's
// start-node count.
func BenchmarkAblationLinearStartCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := bench.AblationLinearStartCount(2, 42)
		if err != nil {
			b.Fatal(err)
		}
		printTable("abl-linear-start", a.Format())
	}
}

// --- substrate micro-benchmarks ---

// benchGraph caches a mid-size transportation graph for the micro
// benchmarks.
var benchGraph = func() *graph.Graph {
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.Defaults(25, 42)})
	if err != nil {
		panic(err)
	}
	return g
}()

// BenchmarkSemiNaiveClosure times the relational semi-naive closure on
// a 4×25 transportation graph.
func BenchmarkSemiNaiveClosure(b *testing.B) {
	rel := relation.FromGraph(benchGraph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tc.SemiNaiveClosure(rel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmartClosure times the squaring closure. Squaring joins the
// full (dense) closure with itself, so it runs on a smaller graph than
// the delta-based semi-naive benchmark.
func BenchmarkSmartClosure(b *testing.B) {
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 2, Cluster: gen.Defaults(12, 42)})
	if err != nil {
		b.Fatal(err)
	}
	rel := relation.FromGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tc.SmartClosure(rel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarshallClosure times the dense matrix closure.
func BenchmarkWarshallClosure(b *testing.B) {
	rel := relation.FromGraph(benchGraph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tc.WarshallClosure(rel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitsetClosure times the bitset-parallel kernel on the same
// graph as BenchmarkSemiNaiveClosure, for a direct comparison.
func BenchmarkBitsetClosure(b *testing.B) {
	rel := relation.FromGraph(benchGraph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tc.BitsetClosure(rel); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGrid caches the 64×64 lattice of the engine shoot-out (one big
// strongly connected component, diameter ≈ 126).
var benchGrid = func() *graph.Graph {
	g, err := gen.Grid(gen.GridConfig{Width: 64, Height: 64, DiagonalProb: 0.1, Seed: 42})
	if err != nil {
		panic(err)
	}
	return g
}()

// BenchmarkGridReachableFromSemiNaive times the per-leg semi-naive
// engine (entry-set-restricted reachability) on the 64×64 grid.
func BenchmarkGridReachableFromSemiNaive(b *testing.B) {
	rel := relation.FromGraph(benchGrid)
	srcs := []graph.NodeID{0, 2080}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tc.ReachableFrom(rel, srcs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridReachableFromBitset times the bitset-parallel engine:
// "relation" on the subquery BenchmarkGridReachableFromSemiNaive runs,
// through the relation-fronted wrapper (one interning per call);
// "site" as serving runs it — a middle leg of the 64×64 grid in 8
// linear fragments, a whole disconnection set as entry, through
// ExecuteLegFullCtx on the site's CSR.
func BenchmarkGridReachableFromBitset(b *testing.B) {
	b.Run("relation", func(b *testing.B) {
		rel := relation.FromGraph(benchGrid)
		srcs := []graph.NodeID{0, 2080}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := tc.BitsetReachableFromCtx(context.Background(), rel, srcs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("site", func(b *testing.B) {
		fr, err := servingDeployments[1].build() // grid
		if err != nil {
			b.Fatal(err)
		}
		st, err := dsa.Build(fr, dsa.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nodes := fr.Base().Nodes()
		plan, err := st.NewPlan(nodes[0], nodes[len(nodes)-1]) // opposite corners
		if err != nil || len(plan.Legs) < 3 {
			b.Fatalf("plan %+v, err %v; want a chain with a middle leg", plan, err)
		}
		leg := plan.Legs[len(plan.Legs)/2]
		if _, err := st.Site(leg.SiteID).DenseKernel(); err != nil { // as the site's first leg builds it
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := st.ExecuteLegFullCtx(context.Background(), leg.SiteID, leg.Entry, dsa.EngineBitset); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCost times the two cost-capable per-leg engines on the
// identical entry-set-restricted shortest-path cost subquery over the
// 64×64 grid: the semi-naive relational min-cost fixpoint versus the
// dense CSR + level-synchronous Bellman-Ford kernel, whose CSR is built
// once, as a site keeps it.
func BenchmarkCost(b *testing.B) {
	rel := relation.FromGraph(benchGrid)
	srcs := []graph.NodeID{0, 2080}
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := tc.ShortestFromCtx(context.Background(), rel, srcs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		d, err := tc.NewDenseGraph(benchGrid.CSR())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.CostFromCtx(context.Background(), srcs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFilterLegFacts times the exit selection on the two leg shapes
// the serving benchmark spends it on: a grid-point middle leg (60 entry
// nodes × 512 site nodes, a 60-node disconnection set as exits — about
// one row in nine kept) and a road-point last leg (5 gateways × 4 300
// city nodes, the query's single target as exit — 5 rows kept).
func BenchmarkFilterLegFacts(b *testing.B) {
	for _, c := range []struct {
		name                  string
		entries, nodes, exits int
	}{
		{"grid-ds-leg", 60, 512, 60},
		{"road-single-target", 5, 4300, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			leg := dsa.Leg{SiteID: 1}
			rows := make([]relation.Tuple, 0, c.entries*c.nodes)
			for dst := 0; dst < c.nodes; dst++ {
				for src := 0; src < c.entries; src++ {
					rows = append(rows, relation.Tuple{int64(src), int64(dst), float64(src + dst)})
				}
			}
			for i := 0; i < c.entries; i++ {
				leg.Entry = append(leg.Entry, graph.NodeID(i))
			}
			for i := 0; i < c.exits; i++ {
				leg.Exit = append(leg.Exit, graph.NodeID(c.nodes-c.exits+i))
			}
			table, err := relation.Adopt(rows, "src", "dst", "cost")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, err := dsa.FilterLegFacts(table, leg); err != nil || out.Len() != c.entries*c.exits {
					b.Fatalf("%v rows, err %v", out.Len(), err)
				}
			}
		})
	}
}

// BenchmarkFinishPlan times the assembly phase of a grid-point query
// with every leg warm: the grid serving deployment (64x64, 8 linear
// fragments, disconnection sets of about 60 nodes), a corner-to-corner
// pair, each leg's dense-engine table executed once up front and handed
// to FinishPlan as a cache hit would be — so the loop is the exit
// selection plus the min-plus fold. The answer is checked against
// Dijkstra on the unfragmented graph.
func BenchmarkFinishPlan(b *testing.B) {
	fr, err := servingDeployments[1].build()
	if err != nil {
		b.Fatal(err)
	}
	st, err := dsa.Build(fr, dsa.Options{})
	if err != nil {
		b.Fatal(err)
	}
	nodes := fr.Base().Nodes()
	src, dst := nodes[0], nodes[len(nodes)-1]
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	results := make([]*dsa.LegResult, len(plan.Legs))
	for i, leg := range plan.Legs {
		table, stats, err := st.ExecuteLegTableCtx(context.Background(), leg.SiteID, leg.Entry, dsa.EngineDense)
		if err != nil {
			b.Fatal(err)
		}
		results[i] = &dsa.LegResult{Leg: leg, Table: table, Stats: stats}
	}
	dist, _ := fr.Base().ShortestPaths(src)
	want := dist[dst]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := st.PlanResult(plan)
		if err := st.FinishPlan(plan, results, res); err != nil {
			b.Fatal(err)
		}
		if !res.Reachable || math.Abs(res.Cost-want) > 1e-9*(1+want) {
			b.Fatalf("%d -> %d: cost %v (reachable %v), Dijkstra %v", src, dst, res.Cost, res.Reachable, want)
		}
	}
}

// BenchmarkLegTable times one leg's table on the dense engine, as the
// serving executor makes it on a cache miss: on road's largest site
// from one interior source (road-point's one miss per query), and the
// second leg of each deployment's first-to-last-node plan, the first
// entered through a whole disconnection set (road's 5 gateways, grid's
// 42 border nodes). The site's kernel is built up front, as the first
// leg on the site builds it.
// Run with -benchmem: B/op and allocs/op are what a miss allocates.
func BenchmarkLegTable(b *testing.B) {
	for _, d := range servingDeployments {
		fr, err := d.build()
		if err != nil {
			b.Fatal(err)
		}
		st, err := dsa.Build(fr, dsa.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nodes := fr.Base().Nodes()
		plan, err := st.NewPlan(nodes[0], nodes[len(nodes)-1])
		if err != nil {
			b.Fatal(err)
		}
		type namedLeg struct {
			name string
			leg  dsa.Leg
		}
		var legs []namedLeg
		if d.name == "road" {
			largest := slices.MaxFunc(st.Sites(), func(x, y *dsa.Site) int { return x.Augmented().NumNodes() - y.Augmented().NumNodes() })
			for _, n := range fr.Fragment(largest.ID).Nodes() {
				if len(fr.FragmentsOf(n)) == 1 {
					legs = append(legs, namedLeg{"single-source", dsa.Leg{SiteID: largest.ID, Entry: []graph.NodeID{n}}})
					break
				}
			}
		}
		if len(plan.Legs) < 2 {
			b.Fatalf("plan %+v: want a leg entered through a disconnection set", plan)
		}
		legs = append(legs, namedLeg{"ds-leg", plan.Legs[1]})
		for _, nl := range legs {
			leg := nl.leg
			b.Run(d.name+"/"+nl.name, func(b *testing.B) {
				if _, err := st.Site(leg.SiteID).DenseKernel(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := st.ExecuteLegTableCtx(context.Background(), leg.SiteID, leg.Entry, dsa.EngineDense); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(leg.Entry)), "entry")
			})
		}
	}
}

// BenchmarkLegEngines times ExecuteLegTableCtx on each engine auto
// could pick — per-entry dijkstra, the dense cost kernel, the bitset
// connectivity kernel — one leg per op, cycling over the legs of 64
// cross-fragment pairs on the paper, grid and road deployments in three
// groups: every leg, the first legs (entered at the query's source) and
// the legs entered through a disconnection set. Each site's kernel is
// built up front, as its first leg builds it. The paper deployment also
// times the pipelined walk of its pairs, one pair per op, on the two
// vector-seeded engines. These are the measurements behind tcq.Plan's
// rule: the kernels win at every site size here, so auto never picks
// dijkstra.
func BenchmarkLegEngines(b *testing.B) {
	ctx := context.Background()
	for _, d := range append([]deployment{paperDeployment}, servingDeployments...) {
		fr, err := d.build()
		if err != nil {
			b.Fatal(err)
		}
		st, err := dsa.Build(fr, dsa.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nodes := fr.Base().Nodes()
		rng := rand.New(rand.NewSource(1))
		var pairs [][2]graph.NodeID
		groups := map[string][]dsa.Leg{}
		for len(pairs) < 64 {
			src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			plan, err := st.NewPlan(src, dst)
			if err != nil {
				b.Fatal(err)
			}
			if plan.SameFragment || len(plan.Legs) == 0 {
				continue
			}
			pairs = append(pairs, [2]graph.NodeID{src, dst})
			for _, leg := range plan.Legs {
				groups["all"] = append(groups["all"], leg)
				if len(leg.Entry) == 1 && leg.Entry[0] == src {
					groups["source"] = append(groups["source"], leg)
				} else {
					groups["ds"] = append(groups["ds"], leg)
				}
			}
		}
		for _, leg := range groups["all"] {
			if _, err := st.Site(leg.SiteID).DenseKernel(); err != nil {
				b.Fatal(err)
			}
		}
		for _, group := range []string{"all", "source", "ds"} {
			legs := groups[group]
			for _, engine := range []dsa.Engine{dsa.EngineDijkstra, dsa.EngineDense, dsa.EngineBitset} {
				b.Run(d.name+"/"+group+"/"+engine.String(), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						leg := legs[i%len(legs)]
						if _, _, err := st.ExecuteLegTableCtx(ctx, leg.SiteID, leg.Entry, engine); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
		if d.name != paperDeployment.name {
			continue
		}
		for _, engine := range []dsa.Engine{dsa.EngineDijkstra, dsa.EngineDense} {
			b.Run(d.name+"/pipelined/"+engine.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					if _, err := st.QueryPipelinedEngineCtx(ctx, p[0], p[1], engine); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDijkstra times one single-source search.
func BenchmarkDijkstra(b *testing.B) {
	nodes := benchGraph.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph.ShortestPaths(nodes[i%len(nodes)])
	}
}

// BenchmarkCenterFragment times the center-based algorithm.
func BenchmarkCenterFragment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := center.Fragment(benchGraph, center.Options{NumFragments: 4, Distributed: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBEAFragment times the bond-energy pipeline (reorder + split)
// with a bounded number of starting columns.
func BenchmarkBEAFragment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bea.Fragment(benchGraph, bea.Options{Threshold: 3, Starts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBEAReorderAllStarts times the full all-starts reordering the
// paper prescribes, on a 100-node matrix.
func BenchmarkBEAReorderAllStarts(b *testing.B) {
	mx := bea.BuildMatrix(benchGraph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mx.Reorder(0)
	}
}

// BenchmarkLinearFragment times the linear sweep.
func BenchmarkLinearFragment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := linear.Fragment(benchGraph, linear.Options{NumFragments: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStore caches a deployed store for the query benchmarks.
var benchStore = func() *dsa.Store {
	res, err := linear.Fragment(benchGraph, linear.Options{NumFragments: 4})
	if err != nil {
		panic(err)
	}
	st, err := dsa.Build(res.Fragmentation, dsa.Options{})
	if err != nil {
		panic(err)
	}
	return st
}()

// BenchmarkBuildStore times complementary-information preprocessing —
// the paper's acknowledged overhead — on the paper-scale store and on
// the two serving-benchmark deployments: the go test twin of the
// ledger's dsa.build_s (road: 55 global searches over 52k nodes; grid:
// 417 over 4k).
func BenchmarkBuildStore(b *testing.B) {
	build := func(fr *fragment.Fragmentation) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dsa.Build(fr, dsa.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("paper", build(benchStore.Fragmentation()))
	for _, d := range servingDeployments {
		fr, err := d.build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.name, build(fr))
	}
}

// deployment names a benchmark deployment and how to build it.
type deployment struct {
	name  string
	build func() (*fragment.Fragmentation, error)
}

// paperDeployment is the paper's Table-2 scale as the ledger's
// paper-point workload deploys it: 4 transportation clusters of 150
// nodes at degree 5.25, center fragmentation into 4 (sites of about 151
// nodes, disconnection sets of about 3).
var paperDeployment = deployment{"paper", func() (*fragment.Fragmentation, error) {
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.DefaultsWithDegree(150, 5.25, 1)})
	if err != nil {
		return nil, err
	}
	return center.Fragment(g, center.Options{NumFragments: 4, Distributed: true})
}}

// servingDeployments are the two serving-benchmark deployments the
// write-path and footprint benchmarks run on.
var servingDeployments = []deployment{
	{"road", func() (*fragment.Fragmentation, error) {
		g, sets, err := gen.RoadNetwork(gen.RoadConfigForEdges(200_000, 1))
		if err != nil {
			return nil, err
		}
		return fragment.New(g, sets)
	}},
	{"grid", func() (*fragment.Fragmentation, error) {
		g, err := gen.Grid(gen.GridConfig{Width: 64, Height: 64, DiagonalProb: 0.1, Seed: 1})
		if err != nil {
			return nil, err
		}
		res, err := linear.Fragment(g, linear.Options{NumFragments: 8})
		if err != nil {
			return nil, err
		}
		return res.Fragmentation, nil
	}},
}

// BenchmarkApply times the write path on the two serving-benchmark
// deployments: one transaction that inserts a heavy edge inside one
// fragment and deletes it again (a new epoch, one rebuilt site, no
// changed answer), each applied to the store the previous one produced,
// as a serving node does. The rebuilt site's CSR is left to its first
// reader, so the loop is the write alone. Run with -benchmem: B/op is
// what a write allocates.
func BenchmarkApply(b *testing.B) {
	for _, d := range servingDeployments {
		b.Run(d.name, func(b *testing.B) {
			fr, err := d.build()
			if err != nil {
				b.Fatal(err)
			}
			st, err := dsa.Build(fr, dsa.Options{})
			if err != nil {
				b.Fatal(err)
			}
			const frag = 1
			nodes := fr.Fragment(frag).Nodes()
			e := graph.Edge{From: nodes[0], To: nodes[len(nodes)/2], Weight: 1e9}
			ops := []dsa.EdgeOp{{Kind: dsa.OpInsert, Frag: frag, Edge: e}, {Kind: dsa.OpDelete, Frag: frag, Edge: e}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next, stats, err := st.Apply(context.Background(), ops)
				if err != nil {
					b.Fatal(err)
				}
				if len(stats.SitesRebuilt) != 1 {
					b.Fatalf("SitesRebuilt = %v, want the one touched site", stats.SitesRebuilt)
				}
				st = next
			}
		})
	}
}

// BenchmarkStoreFootprint reports what a deployed store keeps alive —
// base graph, fragmentation, every site's search graph and primed dense
// kernel — as the live heap it adds once the garbage of building it is
// collected (retained-MB; the time per op is the build and is not the
// point).
func BenchmarkStoreFootprint(b *testing.B) {
	for _, d := range servingDeployments {
		b.Run(d.name, func(b *testing.B) {
			var retained float64
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				fr, err := d.build()
				if err != nil {
					b.Fatal(err)
				}
				st, err := dsa.Build(fr, dsa.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, site := range st.Sites() {
					if _, err := site.DenseKernel(); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(st)
				retained = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
			}
			b.ReportMetric(retained, "retained-MB")
		})
	}
}

// benchRunPair plans and runs one Dijkstra-engine pair on benchStore.
func benchRunPair(src, dst graph.NodeID, parallel bool) (*dsa.Result, error) {
	plan, err := benchStore.NewPlan(src, dst)
	if err != nil {
		return nil, err
	}
	return benchStore.RunPlanCtx(context.Background(), plan, dsa.EngineDijkstra, parallel)
}

// BenchmarkDSAQuerySequential times sequential disconnection-set
// queries.
func BenchmarkDSAQuerySequential(b *testing.B) {
	nodes := benchGraph.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodes[i%len(nodes)]
		dst := nodes[(i*37+13)%len(nodes)]
		if _, err := benchRunPair(src, dst, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSAQueryParallel times the goroutine-per-site executor on
// the same workload.
func BenchmarkDSAQueryParallel(b *testing.B) {
	nodes := benchGraph.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodes[i%len(nodes)]
		dst := nodes[(i*37+13)%len(nodes)]
		if _, err := benchRunPair(src, dst, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedQuery times the full message-passing simulation.
func BenchmarkSimulatedQuery(b *testing.B) {
	cl, err := sim.New(benchStore, sim.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	nodes := benchGraph.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodes[i%len(nodes)]
		dst := nodes[(i*37+13)%len(nodes)]
		if _, err := cl.Run(context.Background(), src, dst, dsa.EngineDijkstra); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFragmentationMeasure times the characteristics computation.
func BenchmarkFragmentationMeasure(b *testing.B) {
	fr := benchStore.Fragmentation()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fragment.Measure(fr)
	}
}
