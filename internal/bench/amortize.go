package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/dsa"
	"repro/internal/gen"
	"repro/internal/sim"
)

// AmortizePoint is one graph size of the preprocessing-amortisation
// analysis.
type AmortizePoint struct {
	// Nodes and Edges describe the graph.
	Nodes, Edges int
	// PrepTime is the simulated cost of building the complementary
	// information: one full-graph single-source search per distinct
	// border node, charged under the same cost model as the queries.
	PrepTime time.Duration
	// PrepFacts is the number of complementary facts stored.
	PrepFacts int
	// SavingsPerQuery is the simulated time a parallel fragmented query
	// saves over the centralized evaluation, averaged over the batch.
	SavingsPerQuery time.Duration
	// BreakEvenQueries is PrepTime / SavingsPerQuery rounded up: the
	// number of queries after which fragmenting has paid for itself
	// under the simulated cost model. Zero when queries save nothing.
	BreakEvenQueries int
}

// AmortizeResult is the sweep.
type AmortizeResult struct {
	Points  []AmortizePoint
	Queries int
}

// Format renders the analysis.
func (r *AmortizeResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Preprocessing amortisation (§2.1: \"pre-processing costs may be amortized over many queries\"; %d queries per point)\n", r.Queries)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "nodes\tedges\tprep time\tcomp facts\tsavings/query\tbreak-even queries")
	for _, p := range r.Points {
		be := "-"
		if p.BreakEvenQueries > 0 {
			be = fmt.Sprintf("%d", p.BreakEvenQueries)
		}
		fmt.Fprintf(tw, "%d\t%d\t%v\t%d\t%v\t%s\n",
			p.Nodes, p.Edges,
			p.PrepTime.Round(time.Microsecond), p.PrepFacts,
			p.SavingsPerQuery.Round(time.Microsecond), be)
	}
	tw.Flush()
	return sb.String()
}

// Amortize quantifies the paper's cost/benefit statement: the one-time
// complementary-information build against the per-query advantage of
// fragmented parallel evaluation, on chain transportation graphs of
// growing size.
func Amortize(queries int, seed int64) (*AmortizeResult, error) {
	ctx := context.Background()
	res := &AmortizeResult{Queries: queries}
	for _, per := range []int{25, 50, 75} {
		const clusters = 4
		links := make([]gen.ClusterLink, 0, clusters-1)
		for i := 0; i+1 < clusters; i++ {
			links = append(links, gen.ClusterLink{A: i, B: i + 1, Edges: 2})
		}
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: clusters,
			Cluster:  gen.Defaults(per, seed),
			Links:    links,
		})
		if err != nil {
			return nil, err
		}
		fr, _, err := clusterFragmentation(g, clusters, per)
		if err != nil {
			return nil, err
		}
		store, err := dsa.Build(fr, dsa.Options{})
		if err != nil {
			return nil, err
		}
		model := sim.DefaultCostModel()
		// Simulated preprocessing charge: each of the DijkstraRuns
		// global searches settles every node and relaxes every edge.
		prepTuples := store.Preprocessing().DijkstraRuns * (g.NumNodes() + g.NumEdges())
		prepTime := time.Duration(float64(prepTuples) / model.TupleRate * float64(time.Second))
		cluster, err := sim.New(store, model)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(per)))
		first := fr.Fragment(0).Nodes()
		last := fr.Fragment(fr.NumFragments() - 1).Nodes()
		var savings time.Duration
		counted := 0
		for q := 0; q < queries; q++ {
			src := first[rng.Intn(len(first))]
			dst := last[rng.Intn(len(last))]
			rep, err := cluster.Run(ctx, src, dst, dsa.EngineSemiNaive)
			if err != nil {
				return nil, err
			}
			if !rep.Reachable {
				continue
			}
			central, err := cluster.CentralizedElapsed(ctx, src, dsa.EngineSemiNaive)
			if err != nil {
				return nil, err
			}
			if central > rep.ParallelElapsed {
				savings += central - rep.ParallelElapsed
			}
			counted++
		}
		p := AmortizePoint{
			Nodes:     g.NumNodes(),
			Edges:     g.NumEdges(),
			PrepTime:  prepTime,
			PrepFacts: store.Preprocessing().PairsStored,
		}
		if counted > 0 {
			p.SavingsPerQuery = savings / time.Duration(counted)
			if p.SavingsPerQuery > 0 {
				p.BreakEvenQueries = int((prepTime + p.SavingsPerQuery - 1) / p.SavingsPerQuery)
			}
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}
