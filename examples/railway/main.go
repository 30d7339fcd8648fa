// Railway: the paper's §2.1 motivating scenario — a European railway
// network naturally fragmented by country, a shortest-connection query
// from Amsterdam to Milan answered by per-country subqueries running in
// parallel, and the "Holland property": a Dutch domestic query is
// answered by the Dutch railway computer alone, even when the best
// route dips across the border.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/pkg/tcq"
)

// Station IDs. Each country owns a block of IDs.
const (
	// Holland
	Amsterdam = iota
	Utrecht
	Rotterdam
	Eindhoven
	Venlo      // border: Holland/Germany
	Maastricht // border: Holland/Germany (southern crossing)
	// Germany
	Cologne
	Frankfurt
	Stuttgart
	Munich
	Basel     // border: Germany/Italy (standing in for the Swiss transit)
	Innsbruck // border: Germany/Italy (Brenner route)
	// Italy
	Verona
	Milan
	Bologna
)

var names = map[graph.NodeID]string{
	Amsterdam: "Amsterdam", Utrecht: "Utrecht", Rotterdam: "Rotterdam",
	Eindhoven: "Eindhoven", Venlo: "Venlo", Maastricht: "Maastricht",
	Cologne: "Cologne", Frankfurt: "Frankfurt", Stuttgart: "Stuttgart",
	Munich: "Munich", Basel: "Basel", Innsbruck: "Innsbruck",
	Verona: "Verona", Milan: "Milan", Bologna: "Bologna",
}

// track declares a symmetric connection with a travel time in minutes.
type track struct {
	a, b graph.NodeID
	min  float64
}

func main() {
	holland := []track{
		{Amsterdam, Utrecht, 27},
		{Amsterdam, Rotterdam, 41},
		{Utrecht, Eindhoven, 47},
		{Rotterdam, Eindhoven, 70},
		{Eindhoven, Venlo, 35},
		{Eindhoven, Maastricht, 62},
		{Utrecht, Rotterdam, 38},
	}
	germany := []track{
		{Venlo, Cologne, 57},
		{Maastricht, Cologne, 65}, // via Aachen
		{Cologne, Frankfurt, 64},
		{Frankfurt, Stuttgart, 78},
		{Stuttgart, Munich, 134},
		{Frankfurt, Munich, 193},
		{Stuttgart, Basel, 156},
		{Munich, Innsbruck, 103},
	}
	italy := []track{
		{Basel, Milan, 247}, // Gotthard transit
		{Innsbruck, Verona, 210},
		{Verona, Milan, 72},
		{Verona, Bologna, 52},
		{Milan, Bologna, 62},
	}

	// Build the network and the semantic fragmentation by country. A
	// cross-border track belongs to the country block that lists it, so
	// border stations (Venlo, Maastricht, Basel, Innsbruck) end up in
	// two fragments — they are the disconnection sets.
	g := graph.New()
	var sets [][]graph.Edge
	for _, country := range [][]track{holland, germany, italy} {
		var edges []graph.Edge
		for _, t := range country {
			e := graph.Edge{From: t.a, To: t.b, Weight: t.min}
			g.AddBoth(e)
			edges = append(edges, e, e.Reverse())
		}
		sets = append(sets, edges)
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		log.Fatal(err)
	}
	countries := []string{"Holland", "Germany", "Italy"}
	for k, p := range fr.DisconnectionPairs() {
		fmt.Printf("DS(%s, %s) = %s\n", countries[p.I], countries[p.J], stationNames(fr.DisconnectionSets()[k]))
	}
	if !fr.FragmentationGraph().IsLooselyConnected() {
		log.Fatal("the country chain should be loosely connected")
	}

	client, err := tcq.Build(fr, tcq.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	// The headline query: Amsterdam → Milan. Three subqueries — one per
	// country — run in parallel; the final joins assemble the answer.
	// The planner picks the engine (per-entry Dijkstra at this scale).
	res, err := client.Query(ctx, tcq.Request{
		Sources: []int{Amsterdam}, Targets: []int{Milan}, Mode: tcq.ModeCost,
	})
	if err != nil {
		log.Fatal(err)
	}
	ans := res.Answers[0]
	fmt.Printf("\nAmsterdam -> Milan: %.0f minutes via %v (engine: %s)\n",
		ans.Cost, chainNames(ans.BestChain, countries), res.Explain.Engine)
	fmt.Printf("sites involved: %d, assembly joins: %d, largest operand: %d tuples\n",
		ans.Sites, ans.AssemblyJoins, ans.MaxOperand)
	if want := g.Distance(Amsterdam, Milan); want != ans.Cost {
		log.Fatalf("disconnection set approach disagrees with global search: %v vs %v", ans.Cost, want)
	}

	// The passenger wants the itinerary, not just the fare: reconstruct
	// the actual station sequence from the per-site predecessor trees
	// and the complementary path segments.
	_, route, err := client.QueryPath(ctx, Amsterdam, Milan)
	if err != nil {
		log.Fatal(err)
	}
	if err := route.Validate(g); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("itinerary: %s\n", stationNames(route.Nodes))

	// The Holland property: Eindhoven → Maastricht. The direct domestic
	// track takes 62 minutes; the detour over German rails (Venlo →
	// Cologne → Maastricht) would take 35+57+65 = 157, so here the
	// domestic route wins — but the *decision* requires knowing the
	// German alternative, which the Dutch site has precomputed in its
	// complementary information. One site answers, correctly.
	domRes, err := client.Query(ctx, tcq.Request{
		Sources: []int{Eindhoven}, Targets: []int{Maastricht}, Mode: tcq.ModeCost,
	})
	if err != nil {
		log.Fatal(err)
	}
	dom := domRes.Answers[0]
	fmt.Printf("\nEindhoven -> Maastricht: %.0f minutes, same-fragment plan: %v, sites used: %d\n",
		dom.Cost, dom.SameFragment, dom.Sites)

	// And a case where the foreign detour genuinely wins: engineering
	// works slow the domestic Eindhoven–Maastricht track to 200
	// minutes. The timetable change is one atomic Batch on the live
	// deployment — replace both directions of the track in a single
	// transaction (no rebuild-from-scratch, no half-updated network
	// ever visible). A snapshot pinned before the works keeps
	// answering the old timetable, the paper's consistency story for
	// long-running queries.
	preWorks := client.Snapshot()
	var works tcq.Batch
	works.Delete(0, Eindhoven, Maastricht, 62).Delete(0, Maastricht, Eindhoven, 62).
		Insert(0, Eindhoven, Maastricht, 200).Insert(0, Maastricht, Eindhoven, 200)
	applied, err := client.Apply(ctx, &works)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nengineering works applied as one %d-op batch: epoch %d, %d site(s) rebuilt, %d shared\n",
		works.Len(), applied.Epoch, len(applied.Stats.SitesRebuilt), applied.Stats.SitesShared)
	slowRes, err := client.Query(ctx, tcq.Request{
		Sources: []int{Eindhoven}, Targets: []int{Maastricht}, Mode: tcq.ModeCost,
	})
	if err != nil {
		log.Fatal(err)
	}
	slow := slowRes.Answers[0]
	gNow := client.Store().Fragmentation().Base()
	fmt.Printf("with works on the domestic track: %.0f minutes (global says %.0f), sites used: %d\n",
		slow.Cost, gNow.Distance(Eindhoven, Maastricht), slow.Sites)
	fmt.Println("the route crosses Germany, yet only the Dutch site computed")
	old, err := preWorks.Cost(ctx, Eindhoven, Maastricht)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("a passenger still on the pre-works snapshot (epoch %d) is quoted: %.0f minutes\n",
		preWorks.Epoch(), old)
}

// stationNames renders node IDs as station names.
func stationNames(ids []graph.NodeID) string {
	s := ""
	for i, id := range ids {
		if i > 0 {
			s += ", "
		}
		s += names[id]
	}
	return s
}

// chainNames renders a fragment chain as country names.
func chainNames(chain []int, countries []string) []string {
	out := make([]string, len(chain))
	for i, c := range chain {
		out[i] = countries[c]
	}
	return out
}
