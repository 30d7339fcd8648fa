package dsa

import (
	"repro/internal/fragment"
	"repro/internal/graph"
)

type Store struct {
	comp map[fragment.Pair][]float64 // want "map[fragment.Pair][]float64"
	dss  [][]graph.NodeID
}
