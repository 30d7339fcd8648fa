package dsa

import "repro/internal/graph"

func seed(exits []graph.NodeID) int {
	dist := map[graph.NodeID]float64{} // want "map[graph.NodeID]float64 in repro/internal/dsa"
	var carried nodeCosts              // want "nodeCosts in repro/internal/dsa"
	weights := map[graph.Edge]float64{}
	for _, x := range exits {
		dist[x] = 0
	}
	return len(dist) + len(carried) + len(weights)
}
