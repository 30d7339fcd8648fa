// Fixture: maps in CSR and searcher signatures, analyzed as
// repro/internal/graph.
package graph

type NodeID int

type distances map[NodeID]float64

type CSR struct{ ids []NodeID }

type searcher struct{ dist []float64 }

type Graph struct{}

func (c *CSR) Seeded(seeds map[NodeID]float64) []float64 { // want "graph.CSR.Seeded takes or returns map[graph.NodeID]float64"
	return nil
}

func (c CSR) Rows() []map[int]bool { return nil } // want "graph.CSR.Rows takes or returns map[int]bool"

func (*CSR) Named() distances { return nil } // want "graph.CSR.Named takes or returns graph.distances"

func (s *searcher) visit(each func(dist map[NodeID]float64)) { // want "graph.searcher.visit takes or returns map[graph.NodeID]float64"
}

func (s *searcher) search(hops bool) {
	m := map[NodeID]int{} // a map inside the body is not the signature's
	_ = m
}

func (c *CSR) Row(id NodeID) (int32, bool) { return 0, false }

// The *Graph conveniences cold readers call are exempt.
func (g *Graph) ShortestPaths(source NodeID) (dist map[NodeID]float64, pred map[NodeID]NodeID) {
	return nil, nil
}
