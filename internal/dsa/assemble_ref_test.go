package dsa

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/internal/relation"
)

// referenceAssemble is the relational assembly phase the min-plus fold
// in FinishPlan replaced — a running (node, cost) relation joined with
// each leg relation in turn and min-aggregated — kept verbatim as the
// oracle the fold is compared against. Its results hold what the legs
// ship, FilterLegFacts' selection, whose sizes it counts as
// TuplesShipped and per-site ResultTuples.
func referenceAssemble(plan *Plan, results []*LegResult) (*Result, error) {
	out := &Result{Cost: math.Inf(1), PerSite: make(map[int]SiteWork)}
	for _, lr := range results {
		out.TuplesShipped += lr.Rel.Len()
		w := out.PerSite[lr.Leg.SiteID]
		w.Stats.ResultTuples += lr.Rel.Len()
		out.PerSite[lr.Leg.SiteID] = w
	}
	for ci, chain := range plan.Chains {
		cost, ok, err := referenceAssembleChain(plan, results, ci, &out.Assembly)
		if err != nil {
			return nil, err
		}
		if ok && cost < out.Cost {
			out.Cost = cost
			out.BestChain = chain
			out.Reachable = true
		}
	}
	return out, nil
}

func referenceAssembleChain(plan *Plan, results []*LegResult, ci int, stats *AssemblyStats) (float64, bool, error) {
	vec := relation.New("node", "cost")
	vec.MustInsert(relation.Tuple{int64(plan.Source), 0.0})
	for _, li := range plan.chainLegs[ci] {
		lr := results[li]
		if lr == nil {
			return 0, false, fmt.Errorf("dsa: assemble: missing result for leg %d", li)
		}
		if lr.Rel.Len() > stats.MaxOperand {
			stats.MaxOperand = lr.Rel.Len()
		}
		if vec.Len() > stats.MaxOperand {
			stats.MaxOperand = vec.Len()
		}
		legRel, err := lr.Rel.Rename("node", "next", "step")
		if err != nil {
			return 0, false, err
		}
		joined, err := vec.Join(legRel, []string{"node"}, []string{"node"})
		if err != nil {
			return 0, false, err
		}
		stats.Joins++
		next := relation.New("node", "cost")
		for _, t := range joined.Tuples() {
			next.MustInsert(relation.Tuple{t[2], t[1].(float64) + t[3].(float64)})
		}
		vec, err = next.MinBy("cost", "node")
		if err != nil {
			return 0, false, err
		}
		if vec.Len() == 0 {
			return 0, false, nil // chain broken: no path through this DS
		}
	}
	at, err := vec.SelectEq("node", int64(plan.Target))
	if err != nil {
		return 0, false, err
	}
	cost, ok, err := at.MinValue("cost")
	if err != nil {
		return 0, false, err
	}
	return cost, ok, nil
}

// foldMismatch runs FinishPlan over results — each leg's table as its
// producer returned it — and referenceAssemble over the same legs passed
// through FilterLegFacts, and describes the first difference: cost
// bits, reachability, winning chain, join and operand counts, tuples
// shipped or a site's ResultTuples. It returns "" when they agree.
func foldMismatch(st *Store, plan *Plan, results []*LegResult) (string, error) {
	res, done := st.PlanResult(plan)
	if done {
		return "", nil
	}
	if err := st.FinishPlan(plan, results, res); err != nil {
		return "", err
	}
	filtered := make([]*LegResult, len(results))
	for i, lr := range results {
		rel, err := FilterLegFacts(lr.Rel, lr.Leg)
		if err != nil {
			return "", err
		}
		filtered[i] = &LegResult{Leg: lr.Leg, Rel: rel}
	}
	want, err := referenceAssemble(plan, filtered)
	if err != nil {
		return "", err
	}
	switch {
	case math.Float64bits(res.Cost) != math.Float64bits(want.Cost) || res.Reachable != want.Reachable:
		return fmt.Sprintf("cost %v (reachable %v), reference %v (%v)", res.Cost, res.Reachable, want.Cost, want.Reachable), nil
	case !slices.Equal(res.BestChain, want.BestChain):
		return fmt.Sprintf("best chain %v, reference %v", res.BestChain, want.BestChain), nil
	case res.Assembly != want.Assembly:
		return fmt.Sprintf("assembly %+v, reference %+v", res.Assembly, want.Assembly), nil
	case res.TuplesShipped != want.TuplesShipped:
		return fmt.Sprintf("%d tuples shipped, reference %d", res.TuplesShipped, want.TuplesShipped), nil
	}
	for site, w := range want.PerSite {
		if got := res.PerSite[site].Stats.ResultTuples; got != w.Stats.ResultTuples {
			return fmt.Sprintf("site %d: ResultTuples %d, reference %d", site, got, w.Stats.ResultTuples), nil
		}
	}
	return "", nil
}

// foldMatchesReference executes the legs of the src→dst plan with
// engine and reports whether FinishPlan's fold over the legs' tables
// and the relational reference over their FilterLegFacts selections
// agree exactly (foldMismatch).
func foldMatchesReference(st *Store, src, dst graph.NodeID, engine Engine) (bool, error) {
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		return false, err
	}
	results := make([]*LegResult, len(plan.Legs))
	for i, leg := range plan.Legs {
		if results[i], err = st.ExecuteLegCtx(context.Background(), leg, engine); err != nil {
			return false, err
		}
	}
	diff, err := foldMismatch(st, plan, results)
	return diff == "", err
}

// threeWayStore builds a three-fragment store on a directed graph whose
// node 0 lies in every fragment:
//
//	F0: 1→2, 2→0, 2→7
//	F1: 0→3, 3→4, 4→0, 5→4
//	F2: 0→6, 5→6, 6→8
//
// So 0 is in both disconnection sets of chain [0 1 2] (DS₀₁ = {0},
// DS₁₂ = {0, 5}); F1's cycle gives the semi-naive table (0, 0, c) rows;
// and 5 has no in-edge, so the exit 5 of a leg entering F1 at 0 has no
// rows, and a chain into 5 breaks.
func threeWayStore(t *testing.T) *Store {
	t.Helper()
	g := graph.New()
	for i := 0; i <= 8; i++ {
		g.AddNode(graph.NodeID(i), graph.Coord{X: float64(i)})
	}
	e := func(from, to graph.NodeID) graph.Edge {
		return graph.Edge{From: from, To: to, Weight: float64(1 + from + to)}
	}
	sets := [][]graph.Edge{
		{e(1, 2), e(2, 0), e(2, 7)},
		{e(0, 3), e(3, 4), e(4, 0), e(5, 4)},
		{e(0, 6), e(5, 6), e(6, 8)},
	}
	for _, es := range sets {
		for _, x := range es {
			g.AddEdge(x)
		}
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPropertyFoldOverTablesMatchesReference: FinishPlan folding the
// legs' tables as a cache holds them agrees with the relational reference over
// their FilterLegFacts selections (foldMismatch) on the cases the
// selection's zero-cost facts have to get right — legs whose entry is
// also an exit (border-node sources and targets, same-fragment pairs of
// border nodes, a node in two consecutive disconnection sets), tables
// with (x, x, c) rows (semi-naive on cyclic fragments), the bitset
// engine's marker-1 tables, and exits without rows up to a broken
// chain. Every pair of every store runs on every engine, and the test
// fails unless each case occurred.
func TestPropertyFoldOverTablesMatchesReference(t *testing.T) {
	stores := map[string]*Store{"three-way": threeWayStore(t)}
	for _, seed := range []int64{3, 11} {
		for _, topo := range applyTopologies {
			fr, err := topo.build(seed)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Build(fr, Options{MaxChains: 50})
			if err != nil {
				t.Fatal(err)
			}
			stores[fmt.Sprintf("%s seed %d", topo.name, seed)] = st
		}
	}
	var entryIsExit, consecutiveDS, selfRows, markerTables, emptyExits, broken int
	ctx := context.Background()
	for name, st := range stores {
		nodes := st.fr.Base().Nodes()
		var border []graph.NodeID
		for _, n := range nodes {
			if len(st.fr.FragmentsOf(n)) > 1 {
				border = append(border, n)
			}
		}
		pairs := make([][2]graph.NodeID, 0, len(border)*8)
		rng := rand.New(rand.NewSource(int64(len(nodes))))
		for _, b := range border {
			for k := 0; k < 4; k++ {
				other := nodes[rng.Intn(len(nodes))]
				pairs = append(pairs, [2]graph.NodeID{b, other}, [2]graph.NodeID{other, b})
			}
			pairs = append(pairs, [2]graph.NodeID{b, border[rng.Intn(len(border))]})
		}
		if len(nodes) < 12 {
			pairs = pairs[:0]
			for _, a := range nodes {
				for _, b := range nodes {
					pairs = append(pairs, [2]graph.NodeID{a, b})
				}
			}
		}
		for _, p := range pairs {
			plan, err := st.NewPlan(p[0], p[1])
			if err != nil {
				t.Fatalf("%s: plan %v: %v", name, p, err)
			}
			middle := make(map[int]bool) // legs entered and left through a DS
			for _, legs := range plan.chainLegs {
				for k := 1; k+1 < len(legs); k++ {
					middle[legs[k]] = true
				}
			}
			for _, engine := range Engines() {
				// Each leg as a cache hands it over: the table and the
				// stats ExecuteLegFullCtx returned, for no exit set.
				results := make([]*LegResult, len(plan.Legs))
				for i, leg := range plan.Legs {
					table, stats, err := st.ExecuteLegFullCtx(ctx, leg.SiteID, leg.Entry, engine)
					if err != nil {
						t.Fatalf("%s %v: leg %+v: %v", name, engine, leg, err)
					}
					results[i] = &LegResult{Leg: leg, Rel: table, Stats: stats}
					sel, err := selectExits(results[i].Rel, leg)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range sel.spans {
						entryIsExit += min(s.zero, 1)
						if s.zero > 0 && middle[i] {
							consecutiveDS++
						}
						if s.lo == s.hi {
							emptyExits++
						}
					}
					for _, row := range results[i].Rel.Tuples() {
						if row[0] == row[1] {
							selfRows++
							break
						}
					}
					if engine == EngineBitset && results[i].Rel.Len() > 0 {
						markerTables++
					}
				}
				diff, err := foldMismatch(st, plan, results)
				if err != nil {
					t.Fatalf("%s %v %d→%d: %v", name, engine, p[0], p[1], err)
				}
				if diff != "" {
					t.Errorf("%s %v %d→%d: %s", name, engine, p[0], p[1], diff)
				}
				if res, err := st.RunPlanCtx(ctx, plan, engine, false); err == nil && !res.Reachable && len(plan.Chains) > 0 {
					broken++
				}
			}
		}
	}
	t.Logf("entry-is-exit spans %d (consecutive DS %d), tables with (x, x, c) rows %d, marker-1 tables %d, exits without rows %d, unreachable planned pairs %d",
		entryIsExit, consecutiveDS, selfRows, markerTables, emptyExits, broken)
	for what, n := range map[string]int{
		"an exit that is also an entry": entryIsExit, "a node in two consecutive disconnection sets": consecutiveDS,
		"an (x, x, c) row": selfRows, "a marker-1 table": markerTables, "an exit without rows": emptyExits, "a broken chain": broken,
	} {
		if n == 0 {
			t.Errorf("no case with %s", what)
		}
	}
}
