package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/phe"
	"repro/internal/sim"
)

// SpeedupPoint is one row of the §2.1 linear speed-up experiment.
type SpeedupPoint struct {
	// Fragments is the number of fragments/sites.
	Fragments int
	// Speedup is the simulated sequential/parallel ratio, averaged over
	// the query batch.
	Speedup float64
	// CentralizedRatio compares the parallel elapsed time against a
	// single processor evaluating the unfragmented graph.
	CentralizedRatio float64
	// CentralizedSeqRatio compares the *sequential* disconnection-set
	// evaluation (one processor executing all legs) against the
	// unfragmented baseline — the paper's parenthetical "(Also in a
	// centralized environment it performs better than other
	// algorithms.)": the keyhole selections make even the one-machine
	// fragmented evaluation cheaper on long-chain queries.
	CentralizedSeqRatio float64
	// AvgSitesUsed is the mean number of sites a query touched.
	AvgSitesUsed float64
}

// SpeedupResult is the full sweep.
type SpeedupResult struct {
	Points  []SpeedupPoint
	Queries int
}

// Format renders the sweep as a table.
func (r *SpeedupResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Speed-up of the disconnection set approach (simulated, %d queries per point)\n", r.Queries)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "fragments\tspeedup\tvs-centralized\t1-cpu-dsa-vs-centralized\tavg sites/query")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\t%.1f\n",
			p.Fragments, p.Speedup, p.CentralizedRatio, p.CentralizedSeqRatio, p.AvgSitesUsed)
	}
	tw.Flush()
	return sb.String()
}

// Speedup measures the simulated speedup of the disconnection set
// approach in the paper's chain scenario (§2.1: "along a chain of
// length n, query processing is performed in parallel at each
// computer"): for each fragment count k it builds a transportation
// graph of k clusters linked in a path, fragments it per cluster, and
// runs shortest-path queries from the first cluster to the last, so
// every site holds one leg of the chain. The same cost model charges
// the parallel pipeline, the single-processor sum of the same legs, and
// the centralized evaluation of the unfragmented graph.
//
// perCluster controls the per-site workload; the paper's speed-up claim
// assumes fragments large enough that local computation dominates the
// (millisecond-scale) messages, so use ≥ 50 nodes per cluster.
func Speedup(perCluster, queries int, seed int64) (*SpeedupResult, error) {
	ctx := context.Background()
	res := &SpeedupResult{Queries: queries}
	for _, frags := range []int{2, 4, 6, 8} {
		// Path-linked clusters, one fragment each.
		links := make([]gen.ClusterLink, 0, frags-1)
		for i := 0; i+1 < frags; i++ {
			links = append(links, gen.ClusterLink{A: i, B: i + 1, Edges: 2})
		}
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: frags,
			Cluster:  gen.Defaults(perCluster, seed),
			Links:    links,
		})
		if err != nil {
			return nil, err
		}
		fr, _, err := clusterFragmentation(g, frags, perCluster)
		if err != nil {
			return nil, err
		}
		store, err := dsa.Build(fr, dsa.Options{})
		if err != nil {
			return nil, err
		}
		cluster, err := sim.New(store, sim.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(frags)))
		first := store.Fragmentation().Fragment(0).Nodes()
		last := store.Fragmentation().Fragment(frags - 1).Nodes()
		var speedupSum, centralSum, centralSeqSum, sitesSum float64
		counted := 0
		for q := 0; q < queries; q++ {
			src := first[rng.Intn(len(first))]
			dst := last[rng.Intn(len(last))]
			rep, err := cluster.Run(ctx, src, dst, dsa.EngineSemiNaive)
			if err != nil {
				return nil, err
			}
			if !rep.Reachable || rep.ParallelElapsed == 0 || rep.SequentialElapsed == 0 {
				continue
			}
			central, err := cluster.CentralizedElapsed(ctx, src, dsa.EngineSemiNaive)
			if err != nil {
				return nil, err
			}
			speedupSum += rep.Speedup
			centralSum += float64(central) / float64(rep.ParallelElapsed)
			centralSeqSum += float64(central) / float64(rep.SequentialElapsed)
			sitesSum += float64(rep.SitesUsed)
			counted++
		}
		if counted == 0 {
			continue
		}
		res.Points = append(res.Points, SpeedupPoint{
			Fragments:           frags,
			Speedup:             speedupSum / float64(counted),
			CentralizedRatio:    centralSum / float64(counted),
			CentralizedSeqRatio: centralSeqSum / float64(counted),
			AvgSitesUsed:        sitesSum / float64(counted),
		})
	}
	return res, nil
}

// clusterFragmentation fragments a transportation graph along its
// cluster structure: intra-cluster edges go to the cluster's fragment
// and every inter-cluster edge to the lower-numbered endpoint's
// fragment, so adjacent clusters share their border nodes (non-empty
// disconnection sets) without a separate highway fragment. It returns
// the fragmentation and the cluster count actually used.
func clusterFragmentation(g *graph.Graph, clusters, perCluster int) (*fragment.Fragmentation, int, error) {
	clusterOf := func(id graph.NodeID) int { return int(id) / perCluster }
	sets := make([][]graph.Edge, clusters)
	for _, e := range g.Edges() {
		c := clusterOf(e.From)
		if d := clusterOf(e.To); d < c {
			c = d
		}
		sets[c] = append(sets[c], e)
	}
	var nonEmpty [][]graph.Edge
	for _, s := range sets {
		if len(s) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	fr, err := fragment.New(g, nonEmpty)
	if err != nil {
		return nil, 0, err
	}
	return fr, len(nonEmpty), nil
}

// IterationsPoint is one row of the reduced-iterations experiment.
type IterationsPoint struct {
	// Fragments is the fragment count.
	Fragments int
	// GlobalIterations is the semi-naive iteration count of the
	// unfragmented source query (≈ graph diameter).
	GlobalIterations float64
	// MaxSiteIterations is the largest per-site iteration count in the
	// fragmented evaluation (≈ fragment diameter).
	MaxSiteIterations float64
}

// IterationsResult is the full sweep.
type IterationsResult struct {
	Points  []IterationsPoint
	Queries int
}

// Format renders the sweep.
func (r *IterationsResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fixpoint iterations: unfragmented vs per-fragment (%d queries per point)\n", r.Queries)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "fragments\tglobal iters\tmax site iters")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\n", p.Fragments, p.GlobalIterations, p.MaxSiteIterations)
	}
	tw.Flush()
	return sb.String()
}

// Iterations verifies §2.1's claim that fragmenting the graph reduces
// the number of fixpoint iterations per site: "the number of iterations
// required before reaching a fixpoint is given by the maximum diameter
// of the graph; if the graph is fragmented in n fragments G_i of equal
// size, the diameter of each subgraph is highly reduced."
func Iterations(clusters, perCluster, queries int, seed int64) (*IterationsResult, error) {
	res := &IterationsResult{Queries: queries}
	g, err := gen.Transportation(gen.TransportConfig{
		Clusters: clusters,
		Cluster:  gen.Defaults(perCluster, seed),
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := g.Nodes()
	queriesSrc := make([]graph.NodeID, queries)
	queriesDst := make([]graph.NodeID, queries)
	for q := range queriesSrc {
		queriesSrc[q] = nodes[rng.Intn(len(nodes))]
		queriesDst[q] = nodes[rng.Intn(len(nodes))]
	}
	for _, frags := range []int{1, 2, 4, 8} {
		lr, err := linear.Fragment(g, linear.Options{NumFragments: frags})
		if err != nil {
			return nil, err
		}
		store, err := dsa.Build(lr.Fragmentation, dsa.Options{})
		if err != nil {
			return nil, err
		}
		var globalSum, siteSum float64
		counted := 0
		for q := 0; q < queries; q++ {
			src, dst := queriesSrc[q], queriesDst[q]
			r, err := runPair(store, src, dst, dsa.EngineSemiNaive)
			if err != nil {
				return nil, err
			}
			if !r.Reachable {
				continue
			}
			maxIter := 0
			for _, w := range r.PerSite {
				if w.Stats.Iterations > maxIter {
					maxIter = w.Stats.Iterations
				}
			}
			global, err := globalIterations(g, src)
			if err != nil {
				return nil, err
			}
			globalSum += float64(global)
			siteSum += float64(maxIter)
			counted++
		}
		if counted == 0 {
			continue
		}
		res.Points = append(res.Points, IterationsPoint{
			Fragments:         lr.Fragmentation.NumFragments(),
			GlobalIterations:  globalSum / float64(counted),
			MaxSiteIterations: siteSum / float64(counted),
		})
	}
	return res, nil
}

// globalIterations counts the semi-naive iterations of an unfragmented
// source-restricted query.
func globalIterations(g *graph.Graph, src graph.NodeID) (int, error) {
	// One-fragment store: the whole graph at one site.
	fr, err := fragment.New(g, [][]graph.Edge{g.Edges()})
	if err != nil {
		return 0, err
	}
	st, err := dsa.Build(fr, dsa.Options{})
	if err != nil {
		return 0, err
	}
	lr, err := st.ExecuteLegCtx(context.Background(), dsa.Leg{SiteID: 0, Entry: []graph.NodeID{src}, Exit: g.Nodes()}, dsa.EngineSemiNaive)
	if err != nil {
		return 0, err
	}
	return lr.Stats.Iterations, nil
}

// Fig8Result compares sweep axes on a wide grid (the paper's Fig. 8:
// two ways of starting a fragmentation).
type Fig8Result struct {
	// AlongDS / AcrossDS are the average disconnection set sizes when
	// sweeping along the long axis vs across it.
	AlongDS, AcrossDS float64
	Trials            int
}

// Format renders the comparison.
func (r *Fig8Result) Format() string {
	return fmt.Sprintf(
		"Fig. 8: linear fragmentation start choice on a wide graph (%d trials)\n"+
			"sweep along long axis:  DS = %.1f\nsweep across long axis: DS = %.1f\n",
		r.Trials, r.AlongDS, r.AcrossDS)
}

// Fig8 reproduces the Fig. 8 effect on wide grid graphs: starting the
// linear sweep on the short side (moving along the long axis) yields
// much smaller disconnection sets than starting on the long side.
func Fig8(trials int, seed int64) (*Fig8Result, error) {
	res := &Fig8Result{Trials: trials}
	const w, h = 24, 6
	for trial := 0; trial < trials; trial++ {
		g, err := gen.Grid(gen.GridConfig{Width: w, Height: h, DiagonalProb: 0.1, Seed: seed + int64(trial)})
		if err != nil {
			return nil, err
		}
		along, err := linear.Fragment(g, linear.Options{NumFragments: 3, Axis: linear.XAxis, StartCount: h})
		if err != nil {
			return nil, err
		}
		across, err := linear.Fragment(g, linear.Options{NumFragments: 3, Axis: linear.YAxis, StartCount: w})
		if err != nil {
			return nil, err
		}
		res.AlongDS += fragment.Measure(along.Fragmentation).DS
		res.AcrossDS += fragment.Measure(across.Fragmentation).DS
	}
	res.AlongDS /= float64(trials)
	res.AcrossDS /= float64(trials)
	return res, nil
}

// PHEPoint compares exhaustive chain enumeration against hierarchical
// routing on a clustered graph whose clusters are densely
// interconnected (complex fragmentation graph).
type PHEPoint struct {
	// Clusters is the cluster count.
	Clusters int
	// DSAChains / PHEChains are the average chains considered per
	// query.
	DSAChains, PHEChains float64
	// CostRatio is avg(PHE cost / DSA cost) over reachable queries — 1.0
	// means the hierarchical restriction lost nothing.
	CostRatio float64
}

// PHEResult is the sweep over cluster counts.
type PHEResult struct {
	Points  []PHEPoint
	Queries int
}

// Format renders the comparison.
func (r *PHEResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Parallel hierarchical evaluation vs exhaustive chains (%d queries per point)\n", r.Queries)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "clusters\tDSA chains\tPHE chains\tPHE/DSA cost")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.3f\n", p.Clusters, p.DSAChains, p.PHEChains, p.CostRatio)
	}
	tw.Flush()
	return sb.String()
}

// PHE runs the §5 extension experiment. For each cluster count it
// builds one transportation graph with a fully linked cluster topology
// ("the fragmentation graph becomes very complex and contains many
// routes from one fragment to another") and deploys it twice:
//
//   - exhaustive DSA over the cluster fragmentation, whose
//     fragmentation graph is the complete graph on the clusters —
//     chain enumeration grows super-exponentially with the cluster
//     count;
//   - PHE over the highway fragmentation of the same graph (all
//     inter-cluster edges in one high-speed fragment), where routing is
//     constant-size.
//
// It reports the chains each strategy considered and the answer-quality
// ratio.
func PHE(queries int, seed int64) (*PHEResult, error) {
	ctx := context.Background()
	res := &PHEResult{Queries: queries}
	for _, clusters := range []int{3, 4, 5} {
		per := 10
		var links []gen.ClusterLink
		for i := 0; i < clusters; i++ {
			for j := i + 1; j < clusters; j++ {
				links = append(links, gen.ClusterLink{A: i, B: j, Edges: 2})
			}
		}
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: clusters,
			Cluster:  gen.Defaults(per, seed+int64(clusters)),
			Links:    links,
		})
		if err != nil {
			return nil, err
		}
		// Exhaustive side: cluster fragmentation with cross edges kept
		// in the endpoint clusters — complete fragmentation graph.
		frFull, _, err := clusterFragmentation(g, clusters, per)
		if err != nil {
			return nil, err
		}
		full, err := dsa.Build(frFull, dsa.Options{})
		if err != nil {
			return nil, err
		}
		// Hierarchical side: highway fragmentation of the same graph.
		frStar, highway, err := phe.SplitByCluster(g, clusters, func(id graph.NodeID) int {
			return int(id) / per
		})
		if err != nil {
			return nil, err
		}
		starStore, err := dsa.Build(frStar, dsa.Options{})
		if err != nil {
			return nil, err
		}
		hier, err := phe.New(starStore, highway)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		nodes := g.Nodes()
		var dsaChains, pheChains, ratioSum float64
		counted := 0
		for q := 0; q < queries; q++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			fullRes, err := runPair(full, src, dst, dsa.EngineDijkstra)
			if err != nil {
				return nil, err
			}
			h, err := hier.Query(ctx, src, dst, dsa.EngineDijkstra)
			if err != nil {
				return nil, err
			}
			if !fullRes.Reachable || !h.Reachable || fullRes.Cost == 0 {
				continue
			}
			dsaChains += float64(fullRes.ChainsConsidered)
			pheChains += float64(h.ChainsConsidered)
			ratioSum += h.Cost / fullRes.Cost
			counted++
		}
		if counted == 0 {
			continue
		}
		res.Points = append(res.Points, PHEPoint{
			Clusters:  clusters,
			DSAChains: dsaChains / float64(counted),
			PHEChains: pheChains / float64(counted),
			CostRatio: ratioSum / float64(counted),
		})
	}
	return res, nil
}
