package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/gen"
	"repro/internal/sim"
)

// ImpactRow relates one algorithm's fragmentation characteristics to
// the query performance it actually delivers.
type ImpactRow struct {
	// Algorithm is the fragmentation strategy.
	Algorithm string
	// DS, AF and Cycles are the averaged §2.2 characteristics.
	DS, AF float64
	Cycles int
	// MeanParallel is the mean simulated parallel query time.
	MeanParallel time.Duration
	// Utilization is the mean processor utilization during phase 1.
	Utilization float64
	// TuplesShipped is the mean assembly traffic per query.
	TuplesShipped float64
	// CompFacts is the complementary-information volume.
	CompFacts int
}

// ImpactResult is the §5 follow-up experiment: the paper closes with
// "these experiments [on the PRISMA machine] will show which of the
// characteristics identified here is of main importance when striving
// for an optimal parallel evaluation of transitive closure queries" —
// this is that experiment, on the simulated machine.
type ImpactResult struct {
	Rows    []ImpactRow
	Queries int
	Graphs  int
}

// Format renders the comparison.
func (r *ImpactResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Which characteristic matters? (§5 follow-up; %d graphs × %d queries, simulated cluster)\n", r.Graphs, r.Queries)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tDS\tAF\tcycles\tmean parallel\tutilization\ttuples shipped\tcomp facts")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%d\t%v\t%.2f\t%.1f\t%d\n",
			row.Algorithm, row.DS, row.AF, row.Cycles,
			row.MeanParallel.Round(time.Microsecond),
			row.Utilization, row.TuplesShipped, row.CompFacts)
	}
	tw.Flush()
	sb.WriteString("small DS → little complementary information and assembly traffic;\n")
	sb.WriteString("small AF → high utilization; both shape the parallel time.\n")
	return sb.String()
}

// Impact runs the characteristic-impact experiment: the same
// transportation graphs fragmented by each §3 algorithm, the same query
// batch on the simulated cluster, performance side by side with the
// characteristics that are supposed to predict it.
func Impact(graphs, queries int, seed int64) (*ImpactResult, error) {
	ctx := context.Background()
	res := &ImpactResult{Queries: queries, Graphs: graphs}
	algs := []Algorithm{
		DistributedCenters(4),
		BondEnergy(3, 0, 8),
		Linear(4, 1),
	}
	type acc struct {
		ds, af, util, shipped float64
		cycles, comp, counted int
		parallel              time.Duration
	}
	accs := make([]acc, len(algs))
	for gi := 0; gi < graphs; gi++ {
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: 4,
			Cluster:  gen.Defaults(20, seed+int64(gi)*131),
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(gi)))
		nodes := g.Nodes()
		batch := make([]sim.QueryPair, queries)
		for q := range batch {
			batch[q] = sim.QueryPair{
				Source: nodes[rng.Intn(len(nodes))],
				Target: nodes[rng.Intn(len(nodes))],
			}
		}
		for ai, alg := range algs {
			fr, err := alg.Run(g, seed+int64(gi))
			if err != nil {
				return nil, fmt.Errorf("bench: impact: %s: %v", alg.Name, err)
			}
			c := fragment.Measure(fr)
			store, err := dsa.Build(fr, dsa.Options{MaxChains: 64})
			if err != nil {
				return nil, err
			}
			cluster, err := sim.New(store, sim.DefaultCostModel())
			if err != nil {
				return nil, err
			}
			rep, err := cluster.RunBatch(ctx, batch, dsa.EngineSemiNaive)
			if err != nil {
				return nil, err
			}
			a := &accs[ai]
			a.ds += c.DS
			a.af += c.AF
			a.cycles += c.Cycles
			a.comp += store.Preprocessing().PairsStored
			if rep.Answered > 0 {
				a.parallel += rep.TotalParallel / time.Duration(rep.Answered)
				a.util += rep.Utilization
				a.shipped += float64(rep.TuplesShipped) / float64(rep.Answered)
				a.counted++
			}
		}
	}
	for ai, alg := range algs {
		a := accs[ai]
		row := ImpactRow{
			Algorithm: alg.Name,
			DS:        a.ds / float64(graphs),
			AF:        a.af / float64(graphs),
			Cycles:    a.cycles / graphs,
			CompFacts: a.comp / graphs,
		}
		if a.counted > 0 {
			row.MeanParallel = a.parallel / time.Duration(a.counted)
			row.Utilization = a.util / float64(a.counted)
			row.TuplesShipped = a.shipped / float64(a.counted)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
