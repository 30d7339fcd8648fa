package graph

import "sort"

// StatusScore computes the weight the center-based fragmentation
// algorithm assigns to node i (§3.1):
//
//	grade(i) + a·Σ_j nb(j,1) + a²·Σ_j nb(j,2) + a³·Σ_j nb(j,3) + …
//
// where grade(i) is the number of edges adjacent to i, nb(j,d) is the
// grade of node j at d edges from i, and a < 1. The formula is a
// variation on Hoede's status score for actors in a social network
// (paper reference [9]); the paper truncates the sum at distance 3,
// which corresponds to depth = 3 here.
//
// Nodes with high status scores are "gravity points in the graph, very
// much like spiders in a web" and are the candidate centers from which
// fragments are grown.
func (g *Graph) StatusScore(i NodeID, a float64, depth int) float64 {
	score := float64(g.Grade(i))
	if depth <= 0 {
		return score
	}
	levels := g.UndirectedBFSLevels(i)
	factor := 1.0
	// Accumulate Σ nb(j,d) per distance ring, scaling by a^d.
	ringSum := make([]float64, depth+1)
	for j, d := range levels {
		if d >= 1 && d <= depth {
			ringSum[d] += float64(g.Grade(j))
		}
	}
	for d := 1; d <= depth; d++ {
		factor *= a
		score += factor * ringSum[d]
	}
	return score
}

// TopByStatus returns the n nodes with the highest status scores, best
// first. Ties break by ascending node ID so the selection is
// deterministic.
func (g *Graph) TopByStatus(n int, a float64, depth int) []NodeID {
	ids := g.Nodes()
	scores := make(map[NodeID]float64, len(ids))
	for _, id := range ids {
		scores[id] = g.StatusScore(id, a, depth)
	}
	sort.SliceStable(ids, func(i, j int) bool {
		si, sj := scores[ids[i]], scores[ids[j]]
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}
