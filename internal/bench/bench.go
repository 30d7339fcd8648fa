// Package bench is the experiment harness reproducing every table and
// measured claim of the ICDE'93 paper. Each experiment generates
// batches of random graphs with the §4.1 generator, fragments them with
// the §3 algorithms, and reports the paper's characteristics (F, DS,
// AF, ADS) or the derived performance quantities (speedup, iteration
// counts). cmd/tcbench and the repository-root benchmarks both drive
// this package.
package bench

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/fragment/bea"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
)

// runPair plans one pair and runs its legs site after site — the
// single-processor evaluation the experiments measure against.
func runPair(st *dsa.Store, src, dst graph.NodeID, engine dsa.Engine) (*dsa.Result, error) {
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		return nil, err
	}
	return st.RunPlanCtx(context.Background(), plan, engine, false)
}

// Row is one line of a characteristics table.
type Row struct {
	// Algorithm is the paper's row label.
	Algorithm string
	// C is the averaged characteristics.
	C fragment.Characteristics
	// PaperF…PaperADS hold the original paper numbers for side-by-side
	// display; negative values mean "not reported".
	PaperF, PaperDS, PaperAF, PaperADS float64
}

// Table is a reproduced characteristics table.
type Table struct {
	// Title and Note describe the experiment.
	Title, Note string
	// Rows are the algorithm rows.
	Rows []Row
	// AvgEdges is the measured average edge count of the generated
	// graphs (the paper reports it in the table caption).
	AvgEdges float64
	// Trials is the number of random graphs averaged.
	Trials int
}

// Format renders the table in the paper's layout, with the paper's
// numbers alongside where known.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "%s\n", t.Note)
	}
	fmt.Fprintf(&sb, "(averaged over %d random graphs, avg |E| = %.1f)\n", t.Trials, t.AvgEdges)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "Algorithm\tF\tDS\tAF\tADS\tfrags\tcycles\tpaper(F DS AF ADS)")
	for _, r := range t.Rows {
		paper := "—"
		if r.PaperF >= 0 {
			paper = fmt.Sprintf("%.1f %.1f %.1f %.2f", r.PaperF, r.PaperDS, r.PaperAF, r.PaperADS)
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.2f\t%d\t%d\t%s\n",
			r.Algorithm, r.C.F, r.C.DS, r.C.AF, r.C.ADS,
			r.C.NumFragments, r.C.Cycles, paper)
	}
	tw.Flush()
	return sb.String()
}

// Algorithm is a named fragmentation strategy applied to a graph.
type Algorithm struct {
	// Name is the row label.
	Name string
	// Run fragments the graph.
	Run func(g *graph.Graph, seed int64) (*fragment.Fragmentation, error)
}

// CenterBased returns the §3.1 algorithm with random high-status
// centers (the original Table 1 behaviour).
func CenterBased(frags int) Algorithm {
	return Algorithm{
		Name: "center-based",
		Run: func(g *graph.Graph, seed int64) (*fragment.Fragmentation, error) {
			return center.Fragment(g, center.Options{NumFragments: frags, Seed: seed})
		},
	}
}

// DistributedCenters returns the §4.2.1 refinement using coordinates to
// spread the centers.
func DistributedCenters(frags int) Algorithm {
	return Algorithm{
		Name: "distributed centers",
		Run: func(g *graph.Graph, seed int64) (*fragment.Fragmentation, error) {
			return center.Fragment(g, center.Options{NumFragments: frags, Distributed: true})
		},
	}
}

// BondEnergy returns the §3.2 algorithm with the given split threshold
// and minimum block size.
func BondEnergy(threshold, minBlockEdges, starts int) Algorithm {
	return Algorithm{
		Name: "bond-energy",
		Run: func(g *graph.Graph, seed int64) (*fragment.Fragmentation, error) {
			return bea.Fragment(g, bea.Options{
				Threshold:     threshold,
				MinBlockEdges: minBlockEdges,
				Starts:        starts,
			})
		},
	}
}

// Linear returns the §3.3 algorithm.
func Linear(frags, startCount int) Algorithm {
	return Algorithm{
		Name: "linear",
		Run: func(g *graph.Graph, seed int64) (*fragment.Fragmentation, error) {
			res, err := linear.Fragment(g, linear.Options{NumFragments: frags, StartCount: startCount})
			if err != nil {
				return nil, err
			}
			return res.Fragmentation, nil
		},
	}
}

// runCharacteristics applies each algorithm to each generated graph and
// averages the characteristics.
func runCharacteristics(graphs []*graph.Graph, algs []Algorithm, seed int64) ([]Row, error) {
	rows := make([]Row, 0, len(algs))
	for _, alg := range algs {
		var cs []fragment.Characteristics
		for i, g := range graphs {
			fr, err := alg.Run(g, seed+int64(i))
			if err != nil {
				return nil, fmt.Errorf("bench: %s on graph %d: %v", alg.Name, i, err)
			}
			cs = append(cs, fragment.Measure(fr))
		}
		rows = append(rows, Row{
			Algorithm: alg.Name,
			C:         fragment.Average(cs),
			PaperF:    -1, PaperDS: -1, PaperAF: -1, PaperADS: -1,
		})
	}
	return rows, nil
}

// transportationBatch generates 'trials' transportation graphs with the
// given cluster layout and average-degree target.
func transportationBatch(trials, clusters, perCluster int, degree float64, seed int64) ([]*graph.Graph, float64, error) {
	var graphs []*graph.Graph
	total := 0
	for i := 0; i < trials; i++ {
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: clusters,
			Cluster:  gen.DefaultsWithDegree(perCluster, degree, seed+int64(i)*101),
		})
		if err != nil {
			return nil, 0, err
		}
		graphs = append(graphs, g)
		total += g.NumEdges()
	}
	return graphs, float64(total) / float64(trials), nil
}

// generalBatch generates 'trials' general graphs.
func generalBatch(trials, nodes int, degree float64, seed int64) ([]*graph.Graph, float64, error) {
	var graphs []*graph.Graph
	total := 0
	for i := 0; i < trials; i++ {
		g, err := gen.General(gen.DefaultsWithDegree(nodes, degree, seed+int64(i)*101))
		if err != nil {
			return nil, 0, err
		}
		graphs = append(graphs, g)
		total += g.NumEdges()
	}
	return graphs, float64(total) / float64(trials), nil
}

// setPaper attaches the paper's reported numbers to the row with the
// given algorithm name.
func setPaper(rows []Row, name string, f, ds, af, ads float64) {
	for i := range rows {
		if rows[i].Algorithm == name {
			rows[i].PaperF, rows[i].PaperDS, rows[i].PaperAF, rows[i].PaperADS = f, ds, af, ads
		}
	}
}

// Table1 reproduces Table 1: fragmentation characteristics of the three
// algorithms on transportation graphs of 4 clusters × 25 nodes (paper:
// avg 429 edges, avg 2.25 inter-cluster edges; BEA DS = 2.4, linear DS
// = 13.3).
func Table1(trials int, seed int64) (*Table, error) {
	graphs, avgEdges, err := transportationBatch(trials, 4, 25, 4.5, seed)
	if err != nil {
		return nil, err
	}
	algs := []Algorithm{
		CenterBased(4),
		BondEnergy(3, 0, 0),
		Linear(4, 1),
	}
	rows, err := runCharacteristics(graphs, algs, seed)
	if err != nil {
		return nil, err
	}
	// Table 1 of the paper is partially garbled in the available scan;
	// the legible facts are DS(bond-energy) = 2.4 and DS(linear) = 13.3
	// with large AF for both, and better balance for center-based.
	setPaper(rows, "bond-energy", -1, 2.4, -1, -1)
	setPaper(rows, "linear", -1, 13.3, -1, -1)
	return &Table{
		Title:    "Table 1: fragmentation characteristics, transportation graphs (4 clusters × 25 nodes)",
		Note:     "paper: avg 429 edges, 2.25 inter-cluster edges; only the DS column survives legibly in the scan",
		Rows:     rows,
		AvgEdges: avgEdges,
		Trials:   trials,
	}, nil
}

// Table2 reproduces Table 2: center-based with and without distributed
// centers on transportation graphs of 4 clusters × 150 nodes (paper:
// 3167 edges; DS 69.5→4.3, AF 636.3→12.4, ADS 13.8→2.9 at F 791.8).
func Table2(trials int, seed int64) (*Table, error) {
	graphs, avgEdges, err := transportationBatch(trials, 4, 150, 5.25, seed)
	if err != nil {
		return nil, err
	}
	algs := []Algorithm{
		CenterBased(4),
		DistributedCenters(4),
	}
	rows, err := runCharacteristics(graphs, algs, seed)
	if err != nil {
		return nil, err
	}
	setPaper(rows, "center-based", 791.8, 69.5, 636.3, 13.8)
	setPaper(rows, "distributed centers", 791.8, 4.3, 12.4, 2.9)
	return &Table{
		Title:    "Table 2: center selection with and without coordinates (4 clusters × 150 nodes)",
		Note:     "paper: 3167 edges; distributed centers cut DS 69.5→4.3 and AF 636.3→12.4",
		Rows:     rows,
		AvgEdges: avgEdges,
		Trials:   trials,
	}, nil
}

// Table3 reproduces Table 3: all four algorithm variants on general
// graphs of 100 nodes (paper: 279.5 edges; BEA DS 5.4 / AF 88.4; linear
// DS 35.8; center 18.1/40.2; distributed 18.9/34.7).
func Table3(trials int, seed int64) (*Table, error) {
	graphs, avgEdges, err := generalBatch(trials, 100, 2.8, seed)
	if err != nil {
		return nil, err
	}
	algs := []Algorithm{
		CenterBased(4),
		DistributedCenters(4),
		BondEnergy(3, 0, 0),
		Linear(4, 1),
	}
	rows, err := runCharacteristics(graphs, algs, seed)
	if err != nil {
		return nil, err
	}
	setPaper(rows, "center-based", 77, 18.1, 40.2, 8.8)
	setPaper(rows, "distributed centers", 77, 18.9, 34.7, 5.9)
	setPaper(rows, "bond-energy", 93.2, 5.4, 88.4, 2.1)
	setPaper(rows, "linear", 111.8, 35.8, 42.1, 1.25)
	return &Table{
		Title:    "Table 3: fragmentation characteristics, general graphs (100 nodes)",
		Note:     "paper: 279.5 edges on average",
		Rows:     rows,
		AvgEdges: avgEdges,
		Trials:   trials,
	}, nil
}
