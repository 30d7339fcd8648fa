// Command tcclosure computes the transitive closure of a graph file
// with a chosen algorithm and reports the fixpoint statistics — the
// single-processor building block the disconnection set approach
// parallelises. With -src the computation is source-restricted
// (selection pushing); with -costs the weighted closure is computed
// instead of reachability.
//
// Usage:
//
//	tcclosure -in graph.txt -alg seminaive
//	tcclosure -in graph.txt -alg smart -src 3
//	tcclosure -in graph.txt -costs -src 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

func main() {
	var (
		in    = flag.String("in", "", "input graph file (required)")
		alg   = flag.String("alg", "seminaive", "naive, seminaive, smart, warshall or condensed")
		src   = flag.Int("src", -1, "restrict to paths from this source node")
		costs = flag.Bool("costs", false, "compute cheapest-path costs instead of reachability")
		dump  = flag.Bool("dump", false, "print the closure tuples")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	rel := relation.FromGraph(g)

	var (
		out   *relation.Relation
		stats tc.Stats
	)
	switch {
	case *costs && *src >= 0:
		out, stats, err = tc.ShortestFromCtx(context.Background(), rel, []graph.NodeID{graph.NodeID(*src)})
	case *costs:
		out, stats, err = tc.ShortestClosure(rel)
	case *src >= 0:
		out, stats, err = tc.ReachableFrom(rel, []graph.NodeID{graph.NodeID(*src)})
	default:
		switch *alg {
		case "naive":
			out, stats, err = tc.NaiveClosure(rel)
		case "seminaive":
			out, stats, err = tc.SemiNaiveClosure(rel)
		case "smart":
			out, stats, err = tc.SmartClosure(rel)
		case "warshall":
			out, stats, err = tc.WarshallClosure(rel)
		case "condensed":
			out, stats, err = tc.CondensedClosure(rel)
		default:
			err = fmt.Errorf("unknown -alg %q (want naive, seminaive, smart, warshall or condensed)", *alg)
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("closure: %d tuples in %d iterations (%d derived tuples; graph diameter %d)\n",
		stats.ResultTuples, stats.Iterations, stats.DerivedTuples, g.Diameter())
	if *dump {
		fmt.Print(out.Sort())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcclosure:", err)
	os.Exit(1)
}
