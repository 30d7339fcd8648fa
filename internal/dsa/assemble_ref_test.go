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

// foldMismatch runs FinishPlan over results — each leg's block as its
// producer returned it — and referenceAssemble over the same legs' full
// relations (fulls, indexed like results) passed through
// FilterLegFacts, and describes the first difference: cost bits,
// reachability, winning chain, join and operand counts, tuples shipped
// or a site's ResultTuples. It returns "" when they agree.
func foldMismatch(st *Store, plan *Plan, results []*LegResult, fulls []*relation.Relation) (string, error) {
	res, done := st.PlanResult(plan)
	if done {
		return "", nil
	}
	if err := st.FinishPlan(plan, results, res); err != nil {
		return "", err
	}
	filtered := make([]*LegResult, len(results))
	for i, lr := range results {
		rel, err := FilterLegFacts(fulls[i], lr.Leg)
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

// blockMemo is a site's transit-block memo in miniature: the block of
// each transit leg — one a chain enters and leaves through a
// disconnection set — the first plan through it produced, handed to
// every later plan as is, keyed by the leg's site, entry set and exit
// set. reused counts the legs a block memoized by an earlier
// plan answered.
type blockMemo struct {
	blocks map[string]*ExitBlock
	reused int
}

// results returns a copy of results in which every transit leg of plan
// carries the memo's block for it instead of its own.
func (m *blockMemo) results(plan *Plan, results []*LegResult) []*LegResult {
	if m.blocks == nil {
		m.blocks = make(map[string]*ExitBlock)
	}
	transit := transitLegs(plan)
	out := make([]*LegResult, len(results))
	for i, lr := range results {
		memo := *lr
		if transit[i] {
			k := fmt.Sprint(lr.Leg.SiteID, lr.Leg.Entry, lr.Leg.Exit)
			b, ok := m.blocks[k]
			if ok {
				m.reused++
			} else {
				b = lr.Block
				m.blocks[k] = b
			}
			memo.Block = b
		}
		out[i] = &memo
	}
	return out
}

// transitLegs marks the legs of plan some chain enters and leaves
// through a disconnection set.
func transitLegs(plan *Plan) map[int]bool {
	transit := make(map[int]bool)
	for _, legs := range plan.chainLegs {
		for k := 1; k+1 < len(legs); k++ {
			transit[legs[k]] = true
		}
	}
	return transit
}

// foldMatchesReference executes the legs of the src→dst plan with
// engine and reports whether FinishPlan's fold over the blocks
// ExecuteLegCtx selects and the relational reference over the
// FilterLegFacts selections of ExecuteLegFullCtx's relations agree
// exactly (foldMismatch).
func foldMatchesReference(st *Store, src, dst graph.NodeID, engine Engine) (bool, error) {
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		return false, err
	}
	ctx := context.Background()
	results := make([]*LegResult, len(plan.Legs))
	fulls := make([]*relation.Relation, len(plan.Legs))
	for i, leg := range plan.Legs {
		if results[i], err = st.ExecuteLegCtx(ctx, leg, engine); err != nil {
			return false, err
		}
		if fulls[i], _, err = st.ExecuteLegFullCtx(ctx, leg.SiteID, leg.Entry, engine); err != nil {
			return false, err
		}
	}
	diff, err := foldMismatch(st, plan, results, fulls)
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
// blocks selected from the legs' tables as a cache holds them agrees
// with the relational reference over the FilterLegFacts selections of
// their full relations (foldMismatch) on the cases the
// selection's zero-cost facts have to get right — legs whose entry is
// also an exit (border-node sources and targets, same-fragment pairs of
// border nodes, a node in two consecutive disconnection sets), tables
// with (x, x, c) rows (semi-naive on cyclic fragments), the bitset
// engine's marker-1 tables, and exits without rows up to a broken
// chain. Every pair of every store runs on every engine, and is folded
// a second time with each transit leg's block the one an earlier plan
// through that leg memoized (blockMemo), as a serving cache hands it
// over; the test fails unless each case occurred.
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
	var entryIsExit, consecutiveDS, selfRows, markerTables, emptyExits, broken, reused int
	ctx := context.Background()
	for name, st := range stores {
		memos := make(map[Engine]*blockMemo)
		nodes := st.fr.Nodes()
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
			middle := transitLegs(plan)
			for _, engine := range Engines() {
				// Each leg as a cache hands it over: the table and the
				// stats ExecuteLegTableCtx returned, for no exit set, the
				// leg's exits selected from it.
				results := make([]*LegResult, len(plan.Legs))
				fulls := make([]*relation.Relation, len(plan.Legs))
				for i, leg := range plan.Legs {
					table, stats, err := st.ExecuteLegTableCtx(ctx, Leg{SiteID: leg.SiteID, Entry: leg.Entry}, engine)
					if err == nil {
						fulls[i], _, err = st.ExecuteLegFullCtx(ctx, leg.SiteID, leg.Entry, engine)
					}
					if err != nil {
						t.Fatalf("%s %v: leg %+v: %v", name, engine, leg, err)
					}
					b := SelectExits(table, leg)
					results[i] = &LegResult{Leg: leg, Block: b, Stats: stats}
					for j := range b.exits {
						if b.zero[j] {
							entryIsExit++
							if middle[i] {
								consecutiveDS++
							}
						}
						facts := 0
						for r := range b.rows {
							if !math.IsInf(b.cost[r*len(b.exits)+j], 1) {
								facts++
							}
						}
						if facts == 0 {
							emptyExits++
						}
					}
					for r, src := range table.Rows {
						if c, ok := table.Col(src); ok && !math.IsInf(table.Cost[r*len(table.Cols)+c], 1) {
							selfRows++
							break
						}
					}
					if engine == EngineBitset && table.Len() > 0 {
						markerTables++
					}
				}
				diff, err := foldMismatch(st, plan, results, fulls)
				if err != nil {
					t.Fatalf("%s %v %d→%d: %v", name, engine, p[0], p[1], err)
				}
				if diff != "" {
					t.Errorf("%s %v %d→%d: %s", name, engine, p[0], p[1], diff)
				}
				// Again, with every transit leg's block the one an
				// earlier plan through the same leg memoized.
				if memos[engine] == nil {
					memos[engine] = &blockMemo{}
				}
				before := memos[engine].reused
				memoized := memos[engine].results(plan, results)
				diff, err = foldMismatch(st, plan, memoized, fulls)
				if err != nil {
					t.Fatalf("%s %v %d→%d memoized: %v", name, engine, p[0], p[1], err)
				}
				if diff != "" {
					t.Errorf("%s %v %d→%d over memoized blocks: %s", name, engine, p[0], p[1], diff)
				}
				reused += memos[engine].reused - before
				if res, err := st.RunPlanCtx(ctx, plan, engine); err == nil && !res.Reachable && len(plan.Chains) > 0 {
					broken++
				}
			}
		}
	}
	t.Logf("entry-is-exit spans %d (consecutive DS %d), tables with (x, x, c) rows %d, marker-1 tables %d, exits without rows %d, unreachable planned pairs %d, memoized blocks reused %d",
		entryIsExit, consecutiveDS, selfRows, markerTables, emptyExits, broken, reused)
	for what, n := range map[string]int{
		"an exit that is also an entry": entryIsExit, "a node in two consecutive disconnection sets": consecutiveDS,
		"an (x, x, c) row": selfRows, "a marker-1 table": markerTables, "an exit without rows": emptyExits, "a broken chain": broken,
		"a block an earlier plan memoized": reused,
	} {
		if n == 0 {
			t.Errorf("no case with %s", what)
		}
	}
}

// FuzzFold holds FinishPlan to the relational reference (foldMismatch)
// on random small stores — one of the write-path topologies at a fuzzed
// seed — and random pairs, every engine, with each leg handed over
// three ways: its full relation from ExecuteLegFullCtx alone
// (FinishPlan converts and selects it), the block ExecuteLegCtx
// selected, and with every transit leg's block one memoized by an
// earlier pair's plan.
func FuzzFold(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(6))
	f.Add(int64(7), uint8(1), uint8(9))
	f.Add(int64(42), uint8(2), uint8(12))
	f.Add(int64(3), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, shape, nPairs uint8) {
		fr, err := applyTopologies[int(shape)%len(applyTopologies)].build(seed)
		if err != nil {
			t.Skip()
		}
		st, err := Build(fr, Options{MaxChains: 50})
		if err != nil {
			t.Skip()
		}
		ctx := context.Background()
		nodes := fr.Nodes()
		rng := rand.New(rand.NewSource(seed))
		memos := make(map[Engine]*blockMemo)
		for k := 0; k < 1+int(nPairs%16); k++ {
			src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			plan, err := st.NewPlan(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			for _, engine := range Engines() {
				produced := make([]*LegResult, len(plan.Legs))
				relations := make([]*LegResult, len(plan.Legs))
				fulls := make([]*relation.Relation, len(plan.Legs))
				for i, leg := range plan.Legs {
					if produced[i], err = st.ExecuteLegCtx(ctx, leg, engine); err != nil {
						t.Fatal(err)
					}
					if fulls[i], _, err = st.ExecuteLegFullCtx(ctx, leg.SiteID, leg.Entry, engine); err != nil {
						t.Fatal(err)
					}
					relations[i] = &LegResult{Leg: leg, Rel: fulls[i], Stats: produced[i].Stats}
				}
				if memos[engine] == nil {
					memos[engine] = &blockMemo{}
				}
				for how, results := range map[string][]*LegResult{
					"relations": relations, "produced blocks": produced, "memoized blocks": memos[engine].results(plan, produced),
				} {
					diff, err := foldMismatch(st, plan, results, fulls)
					if err != nil {
						t.Fatalf("%v %d→%d over %s: %v", engine, src, dst, how, err)
					}
					if diff != "" {
						t.Errorf("%v %d→%d over %s: %s", engine, src, dst, how, diff)
					}
				}
			}
		}
	})
}
