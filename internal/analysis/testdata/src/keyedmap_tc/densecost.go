// Fixture: a node-keyed seed map in the dense kernel's file, analyzed as
// repro/internal/tc.
package tc

import "repro/internal/graph"

func costVector(seeds map[graph.NodeID]float64) []float64 { // want "map[graph.NodeID]float64"
	return make([]float64, len(seeds))
}
