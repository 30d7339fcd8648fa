// Fixture: the node- and pair-keyed map rules in a package analyzed as
// repro/internal/dsa. facts.go is outside the node-keyed rule (FactBlock
// holds its map there).
package dsa

import "repro/internal/graph"

// nodeCosts is declared outside the rule's files and used inside them.
type nodeCosts map[graph.NodeID]float64

type FactBlock struct {
	col map[graph.NodeID]int
}
