// Fixture: node- and edge-keyed maps in a §3 fragmenter, analyzed as
// repro/internal/fragment/{center,linear,bea} (reports) and
// repro/internal/fragment/kconn (exempt: none).
package fragmenter

import (
	"repro/internal/graph"

	g "repro/internal/graph"
)

// nodeSet names a node-keyed map through an import alias, which the
// text `map[graph.NodeID]` misses.
type nodeSet map[g.NodeID]bool // want "map[graph.NodeID]bool"

// set is generic; an instance keyed by node id is a node-keyed map.
type set[K comparable] map[K]bool

func claim(edges []graph.Edge) int {
	claimed := map[graph.Edge]int{} // want "map[graph.Edge]int"
	for i, e := range edges {
		claimed[e] = i
	}
	seen := make(map[graph.NodeID]bool) // want "map[graph.NodeID]bool"
	var marks set[graph.NodeID]         // want "set[graph.NodeID]"
	var held nodeSet                    // want "nodeSet"
	rows := map[int]graph.NodeID{}
	return len(claimed) + len(seen) + len(marks) + len(held) + len(rows)
}
