package dsa

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/relation"
)

// tupleKeys renders a relation as a sorted multiset of tuple keys, the
// order-insensitive equality the cache-vs-direct comparison needs.
func tupleKeys(r *relation.Relation) string {
	keys := make([]string, 0, r.Len())
	for _, t := range r.Tuples() {
		keys = append(keys, t.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestExecuteLegFullMatchesExecuteLeg is the contract the serving
// layer's leg-result cache rests on: ExecuteLegCtx hands the assembly
// exactly the table ExecuteLegFullCtx computes — the one a cache stores
// and passes on as is — and counts the facts the fold will select from
// it, FilterLegFacts' selection, as its ResultTuples, for every engine
// and every leg of real plans.
func TestExecuteLegFullMatchesExecuteLeg(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		rng := rand.New(rand.NewSource(seed))
		st, g, err := buildLinearStore(seed, 3, 10, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nodes := g.Nodes()
		for q := 0; q < 5; q++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			plan, err := st.NewPlan(src, dst)
			if err != nil {
				t.Fatalf("seed %d: plan %d->%d: %v", seed, src, dst, err)
			}
			for _, leg := range plan.Legs {
				for _, engine := range Engines() {
					direct, err := st.ExecuteLegCtx(context.Background(), leg, engine)
					if err != nil {
						t.Fatalf("ExecuteLeg(%v, %v): %v", leg, engine, err)
					}
					full, _, err := st.ExecuteLegFullCtx(context.Background(), leg.SiteID, leg.Entry, engine)
					if err != nil {
						t.Fatalf("ExecuteLegFull(%d, %v, %v): %v", leg.SiteID, leg.Entry, engine, err)
					}
					if !slices.EqualFunc(direct.Rel.Tuples(), full.Tuples(), func(a, b relation.Tuple) bool { return a.Key() == b.Key() }) {
						t.Errorf("seed %d engine %v leg %+v:\nExecuteLegCtx:\n%s\nExecuteLegFullCtx:\n%s",
							seed, engine, leg, direct.Rel, full)
					}
					filtered, err := FilterLegFacts(full, leg)
					if err != nil {
						t.Fatalf("FilterLegFacts: %v", err)
					}
					if direct.Stats.ResultTuples != filtered.Len() {
						t.Errorf("seed %d engine %v leg %+v: ResultTuples %d, FilterLegFacts keeps %d",
							seed, engine, leg, direct.Stats.ResultTuples, filtered.Len())
					}
				}
			}
		}
	}
}

// filterRef is FilterLegFacts written the slow, obvious way — for each
// row, for each exit; for each entry, for each exit — as a sorted
// multiset of tuple keys.
func filterRef(full *relation.Relation, leg Leg) string {
	var keys []string
	for _, t := range full.Tuples() {
		for _, x := range leg.Exit {
			if t[1] == relation.Value(int64(x)) {
				keys = append(keys, t.Key())
			}
		}
	}
	for _, a := range leg.Entry {
		for _, x := range leg.Exit {
			if a == x {
				keys = append(keys, relation.Tuple{int64(a), int64(x), 0.0}.Key())
			}
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// checkSelection holds FilterLegFacts on full against the nested loops,
// and checks that the result is a leg table whose kept rows are full's
// own tuples, not copies.
func checkSelection(t *testing.T, label string, full *relation.Relation, leg Leg) {
	t.Helper()
	got, err := FilterLegFacts(full, leg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if g, w := tupleKeys(got), filterRef(full, leg); g != w {
		t.Errorf("%s, exit %v, entry %v:\nselection:\n%s\nnested loops:\n%s", label, leg.Exit, leg.Entry, g, w)
	}
	if got.SortedBy() != 1 {
		t.Errorf("%s: the selection is not marked sorted by dst", label)
	}
	for _, kept := range got.Tuples() {
		if kept[2] == relation.Value(0.0) {
			continue // possibly a zero-cost fact of the selection's own
		}
		shared := false
		for _, row := range full.Tuples() {
			shared = shared || &row[0] == &kept[0]
		}
		if !shared {
			t.Errorf("%s: kept row %v is a copy, not the table's tuple", label, kept)
		}
		break
	}
}

// TestPropertyFilterLegFactsMatchesNestedLoop: one invariant, every
// producer. On random legs of every engine's full table — entry and
// exit sets that overlap, an empty non-nil exit set, a single target
// that is also an entry node — the table arrives marked sorted by dst
// and the selection on it as produced keeps the multiset the nested
// loops keep; so does the selection on a hand-built copy with rows
// repeated (unmarked: made a leg table first), and on a marked table
// that an Insert has since unmarked.
func TestPropertyFilterLegFactsMatchesNestedLoop(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 7, 23} {
		rng := rand.New(rand.NewSource(seed))
		st, _, err := buildLinearStore(seed, 3, 10, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, site := range st.Sites() {
			nodes := site.Augmented().Nodes()
			pick := func(n int) []graph.NodeID {
				perm := rng.Perm(len(nodes))[:min(n, len(nodes))]
				sort.Ints(perm)
				out := make([]graph.NodeID, len(perm))
				for i, k := range perm {
					out[i] = nodes[k]
				}
				return out
			}
			entry := pick(1 + rng.Intn(4))
			for name, exit := range map[string][]graph.NodeID{
				"random":          pick(1 + rng.Intn(5)),
				"overlaps entry":  slices.Compact(slices.Sorted(slices.Values(append(pick(2), entry[0])))),
				"target is entry": {entry[len(entry)-1]},
				"empty":           {},
			} {
				leg := Leg{SiteID: site.ID, Entry: entry, Exit: exit}
				for _, engine := range Engines() {
					label := fmt.Sprintf("seed %d site %d %v, %s", seed, site.ID, engine, name)
					table, _, err := st.ExecuteLegFullCtx(ctx, site.ID, entry, engine)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if table.SortedBy() != 1 {
						t.Fatalf("%s: the engine's table is not marked sorted by dst", label)
					}
					checkSelection(t, label+" as produced", table, leg)
					// The table plus a random third of its rows again.
					full := table.Select(func(relation.Tuple) bool { return true })
					for _, row := range table.Tuples() {
						if rng.Intn(3) == 0 {
							full.MustInsert(row)
						}
					}
					checkSelection(t, label+" hand-built", full, leg)
					// A row that belongs at the front, inserted at the back.
					if table.Len() > 0 {
						table.MustInsert(table.Tuples()[0])
						if table.SortedBy() != -1 {
							t.Fatalf("%s: Insert left the table marked", label)
						}
						checkSelection(t, label+" after Insert", table, leg)
					}
				}
			}
		}
	}
}

// TestFilterLegFactsSharedTable is for -race: the serving layer's cache
// hands one table to every query that enters a site through the same
// disconnection set, so concurrent selections of different exit sets
// must read it and write nothing.
func TestFilterLegFactsSharedTable(t *testing.T) {
	st, _, err := buildLinearStore(7, 3, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	site := st.Sites()[1]
	nodes := site.Augmented().Nodes()
	entry := nodes[:3]
	table, _, err := st.ExecuteLegFullCtx(context.Background(), site.ID, entry, EngineDense)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var exit []graph.NodeID
			for i := g; i < len(nodes); i += 8 {
				exit = append(exit, nodes[i])
			}
			for round := 0; round < 20; round++ {
				checkSelection(t, fmt.Sprintf("goroutine %d", g), table, Leg{SiteID: site.ID, Entry: entry, Exit: exit})
			}
		}()
	}
	wg.Wait()
}

// TestFilterLegFactsAllocs: on a marked table the selection allocates
// its spans, the kept row headers and the relation around them — a
// grid-point middle leg, 60 entry nodes × 512 site nodes, 60 exits.
func TestFilterLegFactsAllocs(t *testing.T) {
	table, leg := gridLeg(t)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := FilterLegFacts(table, leg); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("FilterLegFacts on a marked %d-row table: %.0f allocations per call, want at most 4", table.Len(), allocs)
	}
}

// gridLeg synthesises the table of a grid-point middle leg — 60 entry
// nodes, each reaching all 512 nodes of the site — and the leg that
// selects 60 other nodes of it as exits.
func gridLeg(tb testing.TB) (*relation.Relation, Leg) {
	tb.Helper()
	const entries, nodes = 60, 512
	leg := Leg{SiteID: 1}
	rows := make([]relation.Tuple, 0, entries*nodes)
	for dst := 0; dst < nodes; dst++ {
		for src := 0; src < entries; src++ {
			rows = append(rows, relation.Tuple{int64(src), int64(dst), float64(src + dst)})
		}
	}
	for i := 0; i < entries; i++ {
		leg.Entry = append(leg.Entry, graph.NodeID(i))
		leg.Exit = append(leg.Exit, graph.NodeID(nodes-entries+i))
	}
	table, err := NewLegTable(rows)
	if err != nil {
		tb.Fatal(err)
	}
	return table, leg
}

// TestNewLegTable: rows in dst order are adopted as they are, any other
// order is stable-sorted, and a row that is not a leg fact is refused
// wherever it stands.
func TestNewLegTable(t *testing.T) {
	row := func(src, dst int64) relation.Tuple { return relation.Tuple{src, dst, 1.0} }
	sorted := []relation.Tuple{row(5, 1), row(4, 1), row(9, 2)}
	table, err := NewLegTable(sorted)
	if err != nil || table.SortedBy() != 1 || &table.Tuples()[0] != &sorted[0] {
		t.Fatalf("sorted rows: %v, %v", table, err)
	}
	table, err = NewLegTable([]relation.Tuple{row(9, 2), row(5, 1), row(8, 2), row(4, 1)})
	if err != nil || table.SortedBy() != 1 {
		t.Fatalf("unsorted rows: %v, %v", table, err)
	}
	var order []int64
	for _, r := range table.Tuples() {
		order = append(order, r[0].(int64))
	}
	if !slices.Equal(order, []int64{5, 4, 9, 8}) {
		t.Errorf("sources after the stable sort: %v, want [5 4 9 8]", order)
	}
	for name, bad := range map[string]relation.Tuple{
		"string dst": {int64(0), "3", 1.0},
		"int cost":   {int64(0), int64(3), int64(1)},
		"arity 2":    {int64(0), int64(3)},
	} {
		if table, err := NewLegTable([]relation.Tuple{row(9, 2), row(5, 1), bad}); err == nil {
			t.Errorf("%s accepted: %v", name, table)
		}
	}
}

// TestFilterLegFactsMalformedFact: a table row that is not (int64,
// int64, float64) makes the selection fail — it is neither dropped
// silently nor a panic. The sibling of TestFinishPlanMalformedFact.
func TestFilterLegFactsMalformedFact(t *testing.T) {
	leg := Leg{SiteID: 1, Entry: []graph.NodeID{0}, Exit: []graph.NodeID{3}}
	table := func(schema []string, rows ...relation.Tuple) *relation.Relation {
		r := relation.New(schema...)
		for _, row := range rows {
			r.MustInsert(row)
		}
		return r
	}
	edge := []string{"src", "dst", "cost"}
	good := relation.Tuple{int64(0), int64(3), 1.0}
	for name, bad := range map[string]*relation.Relation{
		"string dst":       table(edge, good, relation.Tuple{int64(0), "3", 1.0}),
		"string src":       table(edge, relation.Tuple{"0", int64(3), 1.0}, good),
		"float dst":        table(edge, good, relation.Tuple{int64(0), 3.0, 1.0}),
		"int64 cost":       table(edge, good, relation.Tuple{int64(0), int64(3), int64(1)}),
		"arity 2":          table(edge[:2], relation.Tuple{int64(0), int64(3)}),
		"arity 4":          table(append(edge, "via"), relation.Tuple{int64(0), int64(3), 1.0, int64(2)}),
		"bad row off exit": table(edge, good, relation.Tuple{int64(0), "9", 1.0}),
	} {
		if out, err := FilterLegFacts(bad, leg); err == nil {
			t.Errorf("%s: rows %v selected to %v without error", name, bad.Tuples(), out.Tuples())
		}
	}
	out, err := FilterLegFacts(table(edge, good, good), leg)
	if err != nil || out.Len() != 2 {
		t.Errorf("well-formed table: %v rows, err %v; want 2, nil", out, err)
	}
}

func TestExecuteLegFullValidation(t *testing.T) {
	st, _ := pathStore(t)
	if _, _, err := st.ExecuteLegFullCtx(context.Background(), -1, nil, EngineDijkstra); err == nil {
		t.Error("negative site accepted")
	}
	if _, _, err := st.ExecuteLegFullCtx(context.Background(), 99, nil, EngineDijkstra); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, _, err := st.ExecuteLegFullCtx(context.Background(), 0, nil, Engine(42)); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestEpochAdvancesOnUpdate pins the generation number readers and
// peers name a snapshot by.
func TestEpochAdvancesOnUpdate(t *testing.T) {
	st, _ := pathStore(t)
	if st.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", st.Epoch())
	}
	e := graph.Edge{From: 0, To: 2, Weight: 1}
	ctx := context.Background()
	st1, _, err := st.Apply(ctx, []EdgeOp{{Kind: OpInsert, Frag: 0, Edge: e}})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Epoch() != 1 {
		t.Fatalf("epoch after insert = %d, want 1", st1.Epoch())
	}
	st2, _, err := st1.Apply(ctx, []EdgeOp{{Kind: OpDelete, Frag: 0, Edge: e}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Epoch() != 2 {
		t.Fatalf("epoch after delete = %d, want 2", st2.Epoch())
	}
	// A refused update yields no store, so no epoch advances.
	if next, _, err := st2.Apply(ctx, []EdgeOp{{Kind: OpDelete, Frag: 0, Edge: e}}); err == nil || next != nil {
		t.Fatal("double delete accepted")
	}
	if st.Epoch() != 0 || st1.Epoch() != 1 || st2.Epoch() != 2 {
		t.Fatalf("epochs drifted: %d %d %d, want 0 1 2", st.Epoch(), st1.Epoch(), st2.Epoch())
	}
}
