package relation

import "repro/internal/graph"

// EdgeSchema is the canonical schema of an edge relation: source node,
// destination node, and traversal cost. It is the shape of the paper's
// base relation R.
var EdgeSchema = Schema{"src", "dst", "cost"}

// FromEdges builds the edge relation of the given edges, one tuple per
// edge, with node IDs as int64 and weights as float64.
func FromEdges(edges []graph.Edge) *Relation {
	r := New(EdgeSchema...)
	for _, e := range edges {
		r.MustInsert(Tuple{int64(e.From), int64(e.To), e.Weight})
	}
	return r
}

// FromGraph builds the edge relation of an entire graph.
func FromGraph(g *graph.Graph) *Relation { return FromEdges(g.Edges()) }
