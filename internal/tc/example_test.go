package tc_test

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// Example computes the reachability closure of a small parts hierarchy
// with semi-naive evaluation and reports the fixpoint statistics.
func Example() {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(1), int64(2), 1.0}) // truck uses gearbox
	r.MustInsert(relation.Tuple{int64(2), int64(3), 1.0}) // gearbox uses clutch
	closure, stats, err := tc.SemiNaiveClosure(r)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d pairs in %d iterations\n", closure.Len(), stats.Iterations)
	// Output: 3 pairs in 2 iterations
}

// ExampleShortestFrom pushes the source selection into the cost
// fixpoint — the keyhole behaviour disconnection sets rely on.
func ExampleShortestFromCtx() {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(1), int64(2), 3.0})
	r.MustInsert(relation.Tuple{int64(2), int64(3), 4.0})
	r.MustInsert(relation.Tuple{int64(1), int64(3), 9.0})
	costs, _, err := tc.ShortestFromCtx(context.Background(), r, []graph.NodeID{1})
	if err != nil {
		panic(err)
	}
	for _, t := range costs.Sort().Tuples() {
		fmt.Printf("%v -> %v costs %v\n", t[0], t[1], t[2])
	}
	// Output:
	// 1 -> 2 costs 3
	// 1 -> 3 costs 7
}
