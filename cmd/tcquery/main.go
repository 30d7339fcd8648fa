// Command tcquery answers transitive-closure queries over a fragmented
// graph through the public tcq facade: it builds the complementary
// information, validates the request, lets the planner pick the engine
// (or honours -engine), runs the per-site subqueries and assembles the
// answer, reporting the paper's performance quantities along the way.
//
// Sources and targets are sets: -src and -dst accept comma-separated
// node lists and every (source, target) pair is answered.
//
// Usage:
//
//	tcquery -graph graph.txt -frag frags.txt -src 3 -dst 97
//	tcquery -graph graph.txt -frag frags.txt -src 3,4 -dst 97,98 -mode cost -limit 2
//	tcquery -graph graph.txt -frag frags.txt -src 3 -dst 97 -mode pipelined -engine dense
//	tcquery -graph graph.txt -frag frags.txt -src 3 -dst 97 -mode connectivity
//	tcquery -graph graph.txt -frag frags.txt -src 3 -dst 97 -phe 4
//	tcquery -graph graph.txt -frag frags.txt -src 3 -dst 97 -o json | jq .answers[0].cost
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/internal/phe"
	"repro/pkg/tcq"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "graph file (required)")
		fragFile  = flag.String("frag", "", "fragmentation file (required)")
		src       = flag.String("src", "", "source node or comma-separated node set (required)")
		dst       = flag.String("dst", "", "target node or comma-separated node set (required)")
		mode      = flag.String("mode", "cost", "query mode: connectivity, cost or pipelined")
		engine    = flag.String("engine", "auto", "engine: auto (planner decides), dijkstra, seminaive, bitset or dense")
		limit     = flag.Int("limit", 0, "cap the number of (source, target) answers (0 = all)")
		highway   = flag.Int("phe", -1, "use parallel hierarchical evaluation with this highway fragment (single-pair queries)")
		maxChains = flag.Int("max-chains", 0, "bound chain enumeration (0 = unlimited)")
		verbose   = flag.Bool("v", false, "print the plan and per-site work")
		showPath  = flag.Bool("path", false, "reconstruct and print the actual node route (single-pair cost queries)")
		output    = flag.String("o", "text", "output format: text or json (machine-readable, one document on stdout)")
	)
	flag.Parse()
	if *output != "text" && *output != "json" {
		fatal(fmt.Errorf("-o %q: want text or json", *output))
	}
	if *graphFile == "" || *fragFile == "" || *src == "" || *dst == "" {
		fatal(fmt.Errorf("-graph, -frag, -src and -dst are required"))
	}
	sources, err := parseNodeSet(*src)
	if err != nil {
		fatal(fmt.Errorf("-src: %v", err))
	}
	targets, err := parseNodeSet(*dst)
	if err != nil {
		fatal(fmt.Errorf("-dst: %v", err))
	}
	qmode, err := tcq.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	eng, err := tcq.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}

	gf, err := os.Open(*graphFile)
	if err != nil {
		fatal(err)
	}
	g, err := graph.Read(gf)
	gf.Close()
	if err != nil {
		fatal(err)
	}
	ff, err := os.Open(*fragFile)
	if err != nil {
		fatal(err)
	}
	fr, err := fragment.Read(g, ff)
	ff.Close()
	if err != nil {
		fatal(err)
	}

	client, err := tcq.Build(fr, tcq.BuildOptions{MaxChains: *maxChains})
	if err != nil {
		fatal(err)
	}
	defer client.Close()
	jsonOut := *output == "json"
	// In JSON mode stdout carries exactly one machine-readable
	// document; the human-oriented progress lines move to stderr.
	info := os.Stdout
	if jsonOut {
		info = os.Stderr
	}
	prep := client.Preprocessing()
	fmt.Fprintf(info, "store: %d sites, %d disconnection sets, loosely connected: %v\n",
		client.Sites(), prep.DisconnectionSets, client.LooselyConnected())
	fmt.Fprintf(info, "preprocessing: %d global searches, %d complementary facts\n",
		prep.DijkstraRuns, prep.PairsStored)

	req := tcq.Request{Sources: sources, Targets: targets, Mode: qmode, Engine: eng, Limit: *limit}
	ctx := context.Background()

	// The hierarchical evaluator routes through a highway fragment; it
	// answers single pairs with a planner-resolved engine and pooled
	// (non-pipelined) evaluation.
	if *highway >= 0 {
		if jsonOut {
			fatal(fmt.Errorf("-o json is not supported with -phe"))
		}
		if len(sources) != 1 || len(targets) != 1 {
			fatal(fmt.Errorf("-phe answers single-pair queries; got %d sources, %d targets", len(sources), len(targets)))
		}
		if qmode == tcq.ModePipelined {
			fatal(fmt.Errorf("-phe does not support -mode pipelined (hierarchical legs run pooled)"))
		}
		if *verbose || *showPath || *limit > 0 {
			fmt.Fprintln(os.Stderr, "tcquery: -v, -path and -limit are ignored with -phe")
		}
		ex, err := client.Plan(req)
		if err != nil {
			fatal(err)
		}
		h, err := phe.New(client.Store(), *highway)
		if err != nil {
			fatal(err)
		}
		s, t := graph.NodeID(sources[0]), graph.NodeID(targets[0])
		if qmode == tcq.ModeConnectivity {
			connected, err := h.ConnectedNamed(ctx, s, t, ex.Engine.String())
			if err != nil {
				fatal(err)
			}
			printConnected(sources[0], targets[0], connected)
		} else {
			res, err := h.QueryNamed(ctx, s, t, ex.Engine.String())
			if err != nil {
				fatal(err)
			}
			if !res.Reachable {
				printConnected(sources[0], targets[0], false)
			} else {
				fmt.Printf("shortest path %d -> %d: cost %.4f via fragment chain %v\n",
					sources[0], targets[0], res.Cost, res.BestChain)
			}
		}
		return
	}

	res, err := client.Query(ctx, req)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		if err := writeJSON(client, ctx, res, qmode, *showPath, sources, targets); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("plan: %s (%s)\n", res.Explain.Canonical(), res.Explain.Reason)
	for _, ans := range res.Answers {
		switch {
		case qmode == tcq.ModeConnectivity:
			printConnected(ans.Source, ans.Target, ans.Reachable)
		case !ans.Reachable:
			printConnected(ans.Source, ans.Target, false)
		default:
			fmt.Printf("shortest path %d -> %d: cost %.4f via fragment chain %v\n",
				ans.Source, ans.Target, ans.Cost, ans.BestChain)
		}
		if *verbose {
			fmt.Printf("  chains considered: %d, same fragment: %v, elapsed: %v\n",
				ans.ChainsConsidered, ans.SameFragment, ans.Elapsed)
			fmt.Printf("  assembly: %d joins, largest operand %d tuples; tuples shipped: %d\n",
				ans.AssemblyJoins, ans.MaxOperand, ans.TuplesShipped)
			for id, w := range ans.PerSite {
				fmt.Printf("  site %d: %d legs, %d iterations, %d derived tuples, busy %v\n",
					id, w.Legs, w.Stats.Iterations, w.Stats.DerivedTuples, w.Elapsed)
			}
		}
	}
	if res.LimitHit {
		fmt.Printf("(limit %d hit: %d of %d pairs answered)\n", *limit, len(res.Answers), res.Explain.Pairs)
	}
	fmt.Printf("answered %d pair(s) in %v\n", len(res.Answers), res.Elapsed)

	if *showPath && qmode != tcq.ModeConnectivity && len(sources) == 1 && len(targets) == 1 {
		if ans := res.Answers[0]; ans.Reachable {
			_, route, err := client.QueryPath(ctx, sources[0], targets[0])
			if err != nil {
				fatal(err)
			}
			fmt.Printf("route: %v\n", route.Nodes)
		}
	}
}

// jsonPlan is the machine-readable rendering of the planner decision.
type jsonPlan struct {
	Mode   string `json:"mode"`
	Engine string `json:"engine"`
	Forced bool   `json:"forced"`
	Reason string `json:"reason"`
	Pairs  int    `json:"pairs"`
}

// jsonAnswer is one (source, target) pair in -o json output.
type jsonAnswer struct {
	Source    int  `json:"source"`
	Target    int  `json:"target"`
	Reachable bool `json:"reachable"`
	// Cost is present only on reachable cost-mode answers (+Inf does
	// not survive JSON).
	Cost             *float64 `json:"cost,omitempty"`
	BestChain        []int    `json:"best_chain,omitempty"`
	SameFragment     bool     `json:"same_fragment"`
	Truncated        bool     `json:"truncated"`
	ChainsConsidered int      `json:"chains_considered"`
	Sites            int      `json:"sites"`
	TuplesShipped    int      `json:"tuples_shipped"`
	ElapsedUS        int64    `json:"elapsed_us"`
	// Route is the reconstructed node sequence (single-pair cost
	// queries with -path only).
	Route []int `json:"route,omitempty"`
}

// jsonOutput is the single document -o json writes to stdout.
type jsonOutput struct {
	Plan      jsonPlan     `json:"plan"`
	Answers   []jsonAnswer `json:"answers"`
	LimitHit  bool         `json:"limit_hit"`
	ElapsedUS int64        `json:"elapsed_us"`
}

// writeJSON renders the result as one JSON document on stdout — the
// machine-readable surface for scripting and CI checks.
func writeJSON(client *tcq.Client, ctx context.Context, res *tcq.Result, qmode tcq.Mode, showPath bool, sources, targets []int) error {
	out := jsonOutput{
		Plan: jsonPlan{
			Mode:   res.Explain.Mode.String(),
			Engine: res.Explain.Engine.String(),
			Forced: res.Explain.Forced,
			Reason: res.Explain.Reason,
			Pairs:  res.Explain.Pairs,
		},
		LimitHit:  res.LimitHit,
		ElapsedUS: res.Elapsed.Microseconds(),
	}
	costMode := qmode != tcq.ModeConnectivity
	for _, ans := range res.Answers {
		ja := jsonAnswer{
			Source:           ans.Source,
			Target:           ans.Target,
			Reachable:        ans.Reachable,
			BestChain:        ans.BestChain,
			SameFragment:     ans.SameFragment,
			Truncated:        ans.Truncated,
			ChainsConsidered: ans.ChainsConsidered,
			Sites:            ans.Sites,
			TuplesShipped:    ans.TuplesShipped,
			ElapsedUS:        ans.Elapsed.Microseconds(),
		}
		if costMode && ans.Reachable {
			cost := ans.Cost
			ja.Cost = &cost
		}
		if showPath && costMode && ans.Reachable && len(sources) == 1 && len(targets) == 1 {
			_, route, err := client.QueryPath(ctx, ans.Source, ans.Target)
			if err != nil {
				return err
			}
			for _, n := range route.Nodes {
				ja.Route = append(ja.Route, int(n))
			}
		}
		out.Answers = append(out.Answers, ja)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// parseNodeSet parses a comma-separated node list.
func parseNodeSet(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad node %q: %v", p, err)
		}
		if id < 0 {
			return nil, fmt.Errorf("negative node %d", id)
		}
		out = append(out, id)
	}
	return out, nil
}

// printConnected renders a connectivity answer.
func printConnected(src, dst int, connected bool) {
	if connected {
		fmt.Printf("%d and %d are connected\n", src, dst)
	} else {
		fmt.Printf("%d and %d are NOT connected\n", src, dst)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcquery:", err)
	os.Exit(1)
}
