package dsa

import "repro/internal/graph"

// ShortestPaths is banned in store.go only.
func elsewhere(g *graph.Graph) int {
	dist, _ := g.ShortestPaths(0)
	return len(dist)
}

// A method value builds a graph as surely as a call.
func adder(g *graph.Graph) func(graph.Edge) {
	return g.AddEdge // want "(*graph.Graph).AddEdge"
}

func sized() *graph.Graph {
	return graph.NewWithCapacity(4) // want "graph.NewWithCapacity"
}

// graph.NewCSR is how a site builds its one graph.
func csr(ids []graph.NodeID) *graph.CSR {
	return graph.NewCSR(ids, nil)
}

func scratch() *graph.Graph {
	return graph.New() // want "graph.New in repro/internal/dsa"
}
