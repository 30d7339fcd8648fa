package graph

import (
	"cmp"
	"slices"
)

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
// For the symmetric graphs the paper studies a node's grade is its
// undirected degree; for general directed graphs it counts the distinct
// neighbours joined to the node by an edge in either direction
// (self-loops add none), and distances are undirected too.
//
// Nodes with high status scores are "gravity points in the graph, very
// much like spiders in a web" and are the candidate centers from which
// fragments are grown.
func (g *Graph) StatusScore(i NodeID, a float64, depth int) float64 {
	u := g.CSR().Undirected()
	k, ok := u.Row(i)
	if !ok {
		return 0
	}
	return u.statusScores([]int32{k}, a, depth)[0]
}

// TopByStatus returns the n nodes with the highest status scores, best
// first. Ties break by ascending node ID so the selection is
// deterministic.
func (g *Graph) TopByStatus(n int, a float64, depth int) []NodeID {
	u := g.CSR().Undirected()
	rows := make([]int32, len(u.IDs))
	for k := range rows {
		rows[k] = int32(k)
	}
	scores := u.statusScores(rows, a, depth)
	// Rows ascend with node IDs, so the row breaks ties as the ID would.
	slices.SortFunc(rows, func(x, y int32) int {
		return cmp.Or(cmp.Compare(scores[y], scores[x]), cmp.Compare(x, y))
	})
	ids := make([]NodeID, min(max(n, 0), len(rows)))
	for k := range ids {
		ids[k] = u.IDs[rows[k]]
	}
	return ids
}

// statusScores returns the status score of each of the rows of an
// undirected snapshot, a row's grade being its length: a breadth-first
// search from each row sums the grades per distance ring and stops at
// depth. Grades are whole numbers, so each ring's sum is exact in any
// visiting order.
func (u *CSR) statusScores(rows []int32, a float64, depth int) []float64 {
	depth = max(depth, 0)
	level := make([]int32, len(u.IDs)) // -1 where the current search has not been
	for k := range level {
		level[k] = -1
	}
	ring := make([]float64, depth+1)
	var queue []int32
	scores := make([]float64, len(rows))
	for i, src := range rows {
		clear(ring)
		queue = append(queue[:0], src)
		level[src] = 0
		for h := 0; h < len(queue); h++ {
			v := queue[h]
			d := level[v]
			ring[d] += float64(u.Off[v+1] - u.Off[v])
			if int(d) == depth {
				continue
			}
			for _, w := range u.To[u.Off[v]:u.Off[v+1]] {
				if level[w] < 0 {
					level[w] = d + 1
					queue = append(queue, w)
				}
			}
		}
		for _, v := range queue {
			level[v] = -1
		}
		factor := 1.0
		scores[i] = ring[0]
		for d := 1; d <= depth; d++ {
			factor *= a
			scores[i] += factor * ring[d]
		}
	}
	return scores
}
