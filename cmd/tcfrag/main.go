// Command tcfrag fragments a graph with one of the ICDE'93 algorithms
// and reports the paper's fragmentation characteristics (F, DS, AF,
// ADS, cycle count).
//
// Usage:
//
//	tcfrag -in graph.txt -alg bea -threshold 3 -o frags.txt
//	tcfrag -in graph.txt -alg center -fragments 4 -distributed
//	tcfrag -in graph.txt -alg linear -fragments 4 -start-count 3 -axis y
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/fragment"
	"repro/internal/fragment/auto"
	"repro/internal/fragment/bea"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/graph"
)

func main() {
	var (
		in        = flag.String("in", "", "input graph file (required)")
		alg       = flag.String("alg", "center", "algorithm: center, bea, linear or auto")
		frags     = flag.Int("fragments", 4, "number of fragments (center, linear)")
		seed      = flag.Int64("seed", 1, "seed for random center selection")
		distrib   = flag.Bool("distributed", false, "center: spread centers by coordinates (§4.2.1)")
		smallest  = flag.Bool("smallest-first", false, "center: grow the smallest fragment instead of round-robin")
		threshold = flag.Int("threshold", 0, "bea: split threshold (0 = default 3)")
		minBlock  = flag.Int("min-block", 0, "bea: minimum connections per block before splitting")
		localMin  = flag.Bool("local-min", false, "bea: split at local minima instead of the threshold rule")
		starts    = flag.Int("starts", 0, "bea: starting columns to try (0 = all)")
		startCnt  = flag.Int("start-count", 1, "linear: number of start nodes s")
		axis      = flag.String("axis", "x", "linear: sweep axis, x or y")
		out       = flag.String("o", "", "write the fragmentation to this file")
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

	var fr *fragment.Fragmentation
	switch *alg {
	case "center":
		variant := center.RoundRobin
		if *smallest {
			variant = center.SmallestFirst
		}
		fr, err = center.Fragment(g, center.Options{
			NumFragments: *frags,
			Distributed:  *distrib,
			Variant:      variant,
			Seed:         *seed,
		})
	case "bea":
		mode := bea.ThresholdMode
		if *localMin {
			mode = bea.LocalMinimumMode
		}
		fr, err = bea.Fragment(g, bea.Options{
			Threshold:     *threshold,
			MinBlockEdges: *minBlock,
			Mode:          mode,
			Starts:        *starts,
		})
	case "linear":
		ax := linear.XAxis
		if *axis == "y" {
			ax = linear.YAxis
		} else if *axis != "x" {
			fatal(fmt.Errorf("unknown -axis %q (want x or y)", *axis))
		}
		var res *linear.Result
		res, err = linear.Fragment(g, linear.Options{
			NumFragments: *frags,
			StartCount:   *startCnt,
			Axis:         ax,
		})
		if err == nil {
			fr = res.Fragmentation
		}
	case "auto":
		var cands []auto.Candidate
		cands, err = auto.Choose(g, *frags, auto.DefaultWeights(), *seed)
		if err == nil {
			fmt.Println("candidates (best first):")
			for _, c := range cands {
				fmt.Printf("  %-13s score %.3f  %s\n", c.Name, c.Score, c.C)
			}
			fr = cands[0].Fragmentation
		}
	default:
		err = fmt.Errorf("unknown -alg %q (want center, bea, linear or auto)", *alg)
	}
	if err != nil {
		fatal(err)
	}

	summary(os.Stdout, fr)

	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer of.Close()
		if err := fr.Write(of); err != nil {
			fatal(err)
		}
	}
}

// summary prints fr's characteristics, one line per fragment, and one
// per disconnection set in (I, J) order, named DS<I>-<J>.
func summary(w io.Writer, fr *fragment.Fragmentation) {
	fmt.Fprintln(w, fragment.Measure(fr))
	for _, frag := range fr.Fragments() {
		fmt.Fprintf(w, "  fragment %d: %d edges, %d nodes\n", frag.ID, frag.Size(), frag.NumNodes())
	}
	for k, p := range fr.DisconnectionPairs() {
		fmt.Fprintf(w, "  DS%d-%d: %d nodes\n", p.I, p.J, len(fr.DisconnectionSets()[k]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcfrag:", err)
	os.Exit(1)
}
