package dsa

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/relation"
)

// TestLegTableShape: every engine writes a leg table in its site's
// shape — rows the distinct entry nodes present on the site, in entry
// order, columns the site's CSR ids — whatever the entry set: the
// site's border nodes, the same reversed with a repeat and a node the
// site does not have, and each node of the site without an out-edge
// alone, whose semi-naive row holds no fact.
func TestLegTableShape(t *testing.T) {
	ctx := context.Background()
	sinks := 0
	for name, st := range borderStores(t) {
		for _, site := range st.sites {
			c := site.csr
			reversed := slices.Clone(site.border)
			slices.Reverse(reversed)
			entries := [][]graph.NodeID{site.border, append(append(reversed, reversed[0]), -1)}
			for k, id := range c.IDs {
				if c.Off[k+1] == c.Off[k] {
					entries = append(entries, []graph.NodeID{id})
					sinks++
				}
			}
			for _, entry := range entries {
				var want []graph.NodeID
				for _, a := range entry {
					if _, ok := c.Row(a); ok && !slices.Contains(want, a) {
						want = append(want, a)
					}
				}
				for _, engine := range Engines() {
					table, _, err := st.ExecuteLegTableCtx(ctx, Leg{SiteID: site.ID, Entry: entry}, engine)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(table.Rows, want) || !slices.Equal(table.Cols, c.IDs) || len(table.Cost) != len(want)*len(c.IDs) {
						t.Fatalf("%s/%v: site %d from %v: rows %v, %d columns, %d cells; want rows %v by the %d CSR ids",
							name, engine, site.ID, entry, table.Rows, len(table.Cols), len(table.Cost), want, len(c.IDs))
					}
				}
			}
		}
	}
	if sinks == 0 {
		t.Error("no fixture site has a node without an out-edge")
	}
}

// legFactOf is one (src, dst, cost) fact fed to FactBlock.
type legFactOf struct {
	src, dst graph.NodeID
	cost     float64
}

// factsOf lists a block's or table's facts in leg-table order.
func factsOf(each func(fn func(src, dst graph.NodeID, cost float64))) []legFactOf {
	var out []legFactOf
	each(func(src, dst graph.NodeID, cost float64) { out = append(out, legFactOf{src, dst, cost}) })
	return out
}

// blockOf is FactBlock over facts.
func blockOf(leg Leg, facts []legFactOf) (*ExitBlock, error) {
	return FactBlock(leg, len(facts), func(i int) (graph.NodeID, graph.NodeID, float64) {
		return facts[i].src, facts[i].dst, facts[i].cost
	})
}

// legShape names how the border tables answer leg: a transit block, a
// row or column gather, or not at all (the kernel's).
func legShape(site *Site, leg Leg) string {
	rows := onBorder(site.border, leg.Entry)
	column := onBorder(site.border, leg.Exit)
	switch {
	case site.dsIndex(leg.Entry) >= 0 && site.dsIndex(leg.Exit) >= 0:
		return "transit"
	case rows:
		return "row"
	case column && len(leg.Entry) == 1 && site.isSymmetric():
		return "column"
	}
	return "kernel"
}

// TestPropertyFactBlockMatchesSelectExits: for every distinct leg of
// every plan of the border fixtures, on every engine, FactBlock over
// the leg table's facts is SelectExits(table, leg) bit for bit — rows,
// exits, zero-cost flags, fact count and cells — whether the facts are
// the block's own, as a peer ships them, shuffled and with one repeated
// at a higher cost, or the whole table's in leg-table order, with the
// same repeat. The test fails unless every leg shape occurred.
func TestPropertyFactBlockMatchesSelectExits(t *testing.T) {
	ctx := context.Background()
	var rng *rand.Rand
	shapes := make(map[string]int)
	withRepeat := func(facts []legFactOf) []legFactOf {
		if len(facts) == 0 {
			return facts
		}
		f := facts[rng.Intn(len(facts))]
		f.cost++
		return append(facts, f)
	}
	for name, st := range borderStores(t) {
		rng = rand.New(rand.NewSource(7)) // the same shuffles whatever order the stores come in
		seen := make(map[string]bool)
		nodes := st.fr.Nodes()
		for _, src := range nodes {
			for _, dst := range nodes {
				if src == dst {
					continue
				}
				plan, err := st.NewPlan(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				for _, leg := range plan.Legs {
					key := fmt.Sprint(leg)
					if seen[key] {
						continue
					}
					seen[key] = true
					shapes[legShape(st.sites[leg.SiteID], leg)]++
					for _, engine := range Engines() {
						what := fmt.Sprintf("%s/%v: site %d leg %v → %v", name, engine, leg.SiteID, leg.Entry, leg.Exit)
						table, _, err := st.ExecuteLegTableCtx(ctx, leg, engine)
						if err != nil {
							t.Fatal(err)
						}
						want := SelectExits(table, leg)
						shipped := factsOf(want.Matrix().Each)
						rng.Shuffle(len(shipped), func(i, j int) { shipped[i], shipped[j] = shipped[j], shipped[i] })
						for feed, facts := range map[string][]legFactOf{
							"shipped": withRepeat(shipped),
							"whole":   withRepeat(factsOf(table.Each)),
						} {
							got, err := blockOf(leg, facts)
							if err != nil {
								t.Fatalf("%s, %s facts: %v", what, feed, err)
							}
							checkBlock(t, what+", "+feed+" facts", got, want, false)
						}
					}
				}
			}
		}
	}
	t.Logf("legs by shape: %v", shapes)
	for _, shape := range []string{"row", "column", "transit", "kernel"} {
		if shapes[shape] == 0 {
			t.Errorf("no %s leg occurred", shape)
		}
	}
}

// TestFactBlockRefuses: a fact from a node that is not an entry node
// is an error wherever it stands, as is a relation row that is not a
// leg fact; a fact to a node that is not an exit is not selected.
func TestFactBlockRefuses(t *testing.T) {
	leg := Leg{Entry: []graph.NodeID{9, 4}, Exit: []graph.NodeID{2, 1}}
	good := []legFactOf{{9, 2, 1}, {4, 1, 2}, {4, 3, 5}}
	b, err := blockOf(leg, good)
	if err != nil || !slices.Equal(b.rows, []graph.NodeID{9, 4}) || !slices.Equal(b.exits, []graph.NodeID{1, 2}) || b.n != 2 {
		t.Fatalf("block %+v, err %v; want rows [9 4] by exits [1 2] with 2 facts", b, err)
	}
	for at := range len(good) + 1 {
		facts := slices.Insert(slices.Clone(good), at, legFactOf{5, 2, 1})
		if b, err := blockOf(leg, facts); err == nil {
			t.Errorf("fact from 5 at %d accepted: %+v", at, b)
		}
	}
	row := func(src, dst int64, cost float64) relation.Tuple { return relation.Tuple{src, dst, cost} }
	for name, bad := range map[string][]relation.Tuple{
		"string dst": {row(9, 2, 1), {int64(4), "1", 1.0}},
		"int cost":   {{int64(9), int64(2), int64(1)}, row(4, 1, 2)},
		"arity 2":    {{int64(9), int64(2)}},
	} {
		rel, err := relation.Adopt(bad, []string{"src", "dst", "cost"}[:len(bad[len(bad)-1])]...)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := relBlock(rel, leg); err == nil {
			t.Errorf("%s accepted: %+v", name, b)
		}
	}
}
