// Partsdb: the bill-of-material scenario of the paper's introduction —
// "in a database storing information about parts, one can express
// bill-of-material questions". A part–subpart relation is a directed
// graph; "is part X used in assembly Y?" is a reachability query and
// "what is the cheapest way to source subassembly Z?" a cost query.
// The example exercises the relational substrate directly (the paper
// frames transitive closure in the relational algebra) and then scales
// the same questions to a fragmented deployment: each supplier site
// stores the composition of its own product line.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
	"repro/pkg/tcq"
)

// Parts. Supplier A builds vehicles, supplier B drivetrains, supplier C
// electronics; subassembly boundaries (gearbox, controller) are the
// shared parts — the disconnection sets of the parts world.
const (
	// Supplier A: vehicles
	Truck = iota
	Van
	Chassis
	Cabin
	Gearbox // shared with supplier B
	// Supplier B: drivetrains
	Clutch
	Shaft
	Bearing
	Controller // shared with supplier C
	// Supplier C: electronics
	Sensor
	Chip
	Harness
)

var names = map[graph.NodeID]string{
	Truck: "truck", Van: "van", Chassis: "chassis", Cabin: "cabin",
	Gearbox: "gearbox", Clutch: "clutch", Shaft: "shaft",
	Bearing: "bearing", Controller: "controller", Sensor: "sensor",
	Chip: "chip", Harness: "harness",
}

// uses declares that assembly a contains part b, with the cost of the
// integration step.
type uses struct {
	a, b graph.NodeID
	cost float64
}

func main() {
	supplierA := []uses{
		{Truck, Chassis, 40}, {Truck, Cabin, 25}, {Truck, Gearbox, 60},
		{Van, Chassis, 35}, {Van, Gearbox, 55}, {Cabin, Harness, 10},
	}
	supplierB := []uses{
		{Gearbox, Clutch, 20}, {Gearbox, Shaft, 15},
		{Shaft, Bearing, 5}, {Gearbox, Controller, 30},
	}
	supplierC := []uses{
		{Controller, Sensor, 8}, {Controller, Chip, 12},
		{Sensor, Chip, 4}, {Controller, Harness, 6},
	}

	// --- Centralized, purely relational view -------------------------
	g := graph.New()
	var sets [][]graph.Edge
	for _, supplier := range [][]uses{supplierA, supplierB, supplierC} {
		var edges []graph.Edge
		for _, u := range supplier {
			e := graph.Edge{From: u.a, To: u.b, Weight: u.cost}
			g.AddEdge(e)
			edges = append(edges, e)
		}
		sets = append(sets, edges)
	}
	rel := relation.FromGraph(g)

	// "Which parts does a truck contain, transitively?"
	reach, stats, err := tc.ReachableFrom(rel, []graph.NodeID{Truck})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("truck transitively contains %d parts (%d fixpoint iterations):\n  ",
		reach.Len(), stats.Iterations)
	for _, t := range reach.Sort().Tuples() {
		fmt.Printf("%s ", names[graph.NodeID(t[1].(int64))])
	}
	fmt.Println()

	// "Is a chip used in a van?" — a boolean connection query.
	vanParts, _, err := tc.ReachableFrom(rel, []graph.NodeID{Van})
	if err != nil {
		log.Fatal(err)
	}
	usesChip := vanParts.Contains(relation.Tuple{int64(Van), int64(Chip)})
	fmt.Printf("van uses chip: %v\n", usesChip)

	// "What is the cheapest integration path from truck to chip?" —
	// the weighted closure.
	costs, _, err := tc.ShortestFromCtx(context.Background(), rel, []graph.NodeID{Truck})
	if err != nil {
		log.Fatal(err)
	}
	toChip, err := costs.SelectEq("dst", int64(Chip))
	if err != nil {
		log.Fatal(err)
	}
	if c, ok, err := toChip.MinValue("cost"); err == nil && ok {
		fmt.Printf("cheapest integration path truck -> chip: %.0f\n", c)
	}

	// --- Fragmented deployment: one site per supplier ----------------
	fr, err := fragment.New(g, sets)
	if err != nil {
		log.Fatal(err)
	}
	for p, ds := range fr.DisconnectionSets() {
		fmt.Printf("suppliers %d and %d share: %s\n", p.I, p.J, names[ds[0]])
	}
	client, err := tcq.Build(fr, tcq.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	// The same question, answered by the three supplier sites in
	// parallel: supplier A resolves truck -> gearbox, supplier B
	// gearbox -> controller, supplier C controller -> chip. The request
	// forces the paper's relational semi-naive engine — the planner
	// would pick Dijkstra at this size.
	res, err := client.Query(ctx, tcq.Request{
		Sources: []int{Truck}, Targets: []int{Chip},
		Mode: tcq.ModeCost, Engine: tcq.EngineSemiNaive,
	})
	if err != nil {
		log.Fatal(err)
	}
	ans := res.Answers[0]
	fmt.Printf("fragmented: truck -> chip costs %.0f across supplier sites %v\n",
		ans.Cost, ans.BestChain)
	ok, err := client.Connected(ctx, Van, Bearing)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fragmented: van uses bearing: %v\n", ok)

	// Direction matters in a parts hierarchy: nothing "contains" a
	// truck.
	rev, err := client.Connected(ctx, Chip, Truck)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip contains truck (must be false): %v\n", rev)
}
