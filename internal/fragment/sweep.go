package fragment

import (
	"iter"
	"slices"

	"repro/internal/graph"
)

// Sweep is the edge relation the §3 fragmenters grow fragments over,
// in rows, each growth step an "addition of edges — in fact, a
// relational join between intermediate result and the relation
// modeling the graph". Rows are the node table (IDs); an edge is its
// position in (From, To, Weight) order, so parallel copies stay
// distinct and no weight is compared; each row lists its incident
// positions ascending; a claimed mask, the count left and a cursor to
// the least unclaimed position record what is taken.
type Sweep struct {
	IDs   []graph.NodeID // the graph's nodes, ascending: read-only
	g     *graph.Graph
	edges []graph.Edge
	// ends[2p] and ends[2p+1] are the tail and head rows of edge p; row
	// k's incident positions are inc[off[k]:off[k+1]] (a self-loop once).
	ends, off, inc []int32
	claimed        []bool
	left, next     int // no position before next is unclaimed
}

// NewSweep lays g out for claiming, every edge unclaimed.
func NewSweep(g *graph.Graph) *Sweep {
	ids, edges := g.Nodes(), g.Edges()
	s := &Sweep{IDs: ids, g: g, edges: edges, ends: make([]int32, 2*len(edges)),
		off: make([]int32, len(ids)+1), claimed: make([]bool, len(edges)), left: len(edges)}
	for p, e := range edges {
		u, v := s.Row(e.From), s.Row(e.To)
		s.ends[2*p], s.ends[2*p+1] = u, v
		s.off[u+1]++
		if v != u {
			s.off[v+1]++
		}
	}
	for k := range ids {
		s.off[k+1] += s.off[k]
	}
	s.inc = make([]int32, s.off[len(ids)])
	next := slices.Clone(s.off[:len(ids)])
	for p := range edges {
		u, v := s.ends[2*p], s.ends[2*p+1]
		s.inc[next[u]] = int32(p)
		next[u]++
		if v != u {
			s.inc[next[v]] = int32(p)
			next[v]++
		}
	}
	return s
}

// Row returns the row of node id, which must be a node of the graph.
func (s *Sweep) Row(id graph.NodeID) int32 {
	k, _ := graph.RowOf(s.IDs, id)
	return int32(k)
}

// Ends returns the tail and head rows of the edge at position p.
func (s *Sweep) Ends(p int32) [2]int32 { return [2]int32{s.ends[2*p], s.ends[2*p+1]} }

// Left returns the number of unclaimed edges.
func (s *Sweep) Left() int { return s.left }

// Claim takes the edge at position p, unless it is taken, and appends
// p to ps if it did.
func (s *Sweep) Claim(ps []int32, p int32) []int32 {
	if s.claimed[p] {
		return ps
	}
	s.claimed[p] = true
	s.left--
	return append(ps, p)
}

// Take claims every unclaimed edge at row r, appending their positions
// to ps in ascending order.
func (s *Sweep) Take(ps []int32, r int32) []int32 {
	for _, p := range s.inc[s.off[r]:s.off[r+1]] {
		ps = s.Claim(ps, p)
	}
	return ps
}

// Unclaimed yields the unclaimed positions, ascending.
func (s *Sweep) Unclaimed() iter.Seq[int32] {
	return func(yield func(int32) bool) {
		for s.next < len(s.claimed) && s.claimed[s.next] {
			s.next++
		}
		for p := s.next; p < len(s.claimed); p++ {
			if !s.claimed[p] && !yield(int32(p)) {
				return
			}
		}
	}
}

// Fragmentation builds, by New, the fragmentation whose fragment i
// holds the edges at positions parts[i].
func (s *Sweep) Fragmentation(parts [][]int32) (*Fragmentation, error) {
	sets := make([][]graph.Edge, len(parts))
	for i, ps := range parts {
		for _, p := range ps {
			sets[i] = append(sets[i], s.edges[p])
		}
	}
	return New(s.g, sets)
}
