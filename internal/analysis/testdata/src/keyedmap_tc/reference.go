package tc

import "repro/internal/graph"

// The reference closures outside the kernel's file keep their maps.
func reference(dist map[graph.NodeID]float64) int { return len(dist) }
