// Command tcclosure computes the transitive closure of a graph file
// with a chosen algorithm and reports the fixpoint statistics — the
// single-processor building block the disconnection set approach
// parallelises. -alg picks the reachability closure: the naive,
// semi-naive or smart (squaring) fixpoint, Warshall's matrix algorithm,
// or the condensation closure (SCC condensation, then a bitset DAG
// closure). With -src the computation is source-restricted (selection
// pushing); with -costs the cheapest-path closure is computed instead
// of reachability. Both run the semi-naive fixpoint, so they refuse any
// other -alg.
//
// Usage:
//
//	tcclosure -in graph.txt -alg seminaive
//	tcclosure -in graph.txt -alg condensed -dump
//	tcclosure -in graph.txt -src 3
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

// closures are the -alg values, each a full reachability closure.
var closures = map[string]func(*relation.Relation) (*relation.Relation, tc.Stats, error){
	"naive":     tc.NaiveClosure,
	"seminaive": tc.SemiNaiveClosure,
	"smart":     tc.SmartClosure,
	"warshall":  tc.WarshallClosure,
	"condensed": tc.BitsetClosure,
}

func main() {
	var (
		in    = flag.String("in", "", "input graph file (required)")
		alg   = flag.String("alg", "seminaive", "naive, seminaive, smart, warshall or condensed")
		src   = flag.Int("src", -1, "restrict to paths from this source node (semi-naive only)")
		costs = flag.Bool("costs", false, "compute cheapest-path costs instead of reachability (semi-naive only)")
		dump  = flag.Bool("dump", false, "print the closure tuples")
	)
	flag.Parse()
	closure, ok := closures[*alg]
	switch {
	case !ok:
		fatal(fmt.Errorf("unknown -alg %q (want naive, seminaive, smart, warshall or condensed)", *alg))
	case *alg != "seminaive" && (*src >= 0 || *costs):
		fatal(fmt.Errorf("-alg %s cannot be combined with -src or -costs, which run the semi-naive fixpoint", *alg))
	case *in == "":
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
		out, stats, err = closure(rel)
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
