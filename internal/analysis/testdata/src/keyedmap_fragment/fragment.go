// Fixture: pair- and node-keyed maps in the fragmentation package
// itself, analyzed as repro/internal/fragment.
package fragment

import "repro/internal/graph"

type Pair struct{ I, J int }

type meeting struct {
	sets  map[Pair][]graph.NodeID // want "map[fragment.Pair][]graph.NodeID"
	holds map[graph.NodeID][]int  // want "map[graph.NodeID][]int"
	pairs []Pair
}
