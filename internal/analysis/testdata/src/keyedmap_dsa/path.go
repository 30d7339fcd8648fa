package dsa

import "repro/internal/graph"

func route(pred map[graph.NodeID]graph.NodeID) []graph.NodeID { // want "map[graph.NodeID]graph.NodeID"
	return nil
}
