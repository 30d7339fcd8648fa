// Fixture: the graph-building, ShortestPaths, MustInsert and Base
// rules in a package analyzed as repro/internal/dsa.
package dsa

import (
	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/internal/relation"
)

type Site struct{ edges []graph.Edge }

// Augmented builds a graph.Graph: the function's first reference
// reports, and one //tcvet:ignore there exempts the whole function.
func (s *Site) Augmented() *graph.Graph {
	g := graph.New() // want "graph.New in repro/internal/dsa"
	for _, e := range s.edges {
		g.AddEdge(e)
	}
	return g
}

func computeComp(base *graph.Graph) map[graph.NodeID]float64 {
	dist, _ := base.ShortestPaths(0) // want "(*graph.Graph).ShortestPaths"
	return dist
}

func rows(r *relation.Relation) {
	r.MustInsert(relation.Tuple{1, 2}) // want "(*relation.Relation).MustInsert"
}

func nodes(fr *fragment.Fragmentation) int {
	return fr.Base().NumNodes() // want "(*fragment.Fragmentation).Base"
}
