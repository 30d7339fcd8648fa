package fragment

import (
	"fmt"
	"strings"
)

// FragGraph is the fragmentation graph G' of §2.1: a node N_i per
// fragment G_i and an (undirected) edge E_ij for each non-empty
// disconnection set DS_ij.
type FragGraph struct {
	// adj[i] lists the fragments sharing a disconnection set with
	// fragment i, ascending; links counts the disconnection sets.
	adj   [][]int
	links int
}

// FragmentationGraph returns G' of the fragmentation. A FragGraph is
// immutable; the fragmentation and those patched from it share it.
func (fr *Fragmentation) FragmentationGraph() *FragGraph { return fr.meet.fg }

// NumFragments returns the number of fragmentation-graph nodes.
func (fg *FragGraph) NumFragments() int { return len(fg.adj) }

// IsLooselyConnected reports whether G' is acyclic (a forest) — the
// paper's "loosely connected" property: "if the fragmentation graph is
// loosely connected, then it is easier to select fragments involved in
// the computation … there is only one chain of fragments" (§2.1).
func (fg *FragGraph) IsLooselyConnected() bool { return fg.CycleCount() == 0 }

// CycleCount returns the circuit rank |E| − |V| + #components of G':
// zero exactly when the fragmentation is loosely connected, and
// otherwise the number of independent cycles — the paper's "minimize
// the number of cycles" goal measured directly.
func (fg *FragGraph) CycleCount() int {
	seen := make([]bool, len(fg.adj))
	comps := 0
	for start := range fg.adj {
		if seen[start] {
			continue
		}
		comps++
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, n := range fg.adj[u] {
				if !seen[n] {
					seen[n] = true
					stack = append(stack, n)
				}
			}
		}
	}
	return fg.links - len(fg.adj) + comps
}

// Chains enumerates every simple path from fragment 'from' to fragment
// 'to' in G', each as a slice of fragment IDs including both endpoints,
// in deterministic order. For loosely connected fragmentations there is
// at most one chain; otherwise "it is required to consider all possible
// chains of fragments independently for solving the query" (§2.1).
//
// maxChains bounds the enumeration (0 means unlimited); complex
// fragmentation graphs can have exponentially many simple paths, which
// is exactly the problem parallel hierarchical evaluation addresses.
func (fg *FragGraph) Chains(from, to, maxChains int) ([][]int, error) {
	if from < 0 || from >= len(fg.adj) || to < 0 || to >= len(fg.adj) {
		return nil, fmt.Errorf("fragment: chain endpoints %d, %d out of range [0, %d)", from, to, len(fg.adj))
	}
	if from == to {
		return [][]int{{from}}, nil
	}
	var chains [][]int
	onPath := make([]bool, len(fg.adj))
	var path []int
	var dfs func(u int) bool // returns false when the bound is hit
	dfs = func(u int) bool {
		path = append(path, u)
		onPath[u] = true
		defer func() {
			path = path[:len(path)-1]
			onPath[u] = false
		}()
		if u == to {
			chains = append(chains, append([]int(nil), path...))
			return maxChains == 0 || len(chains) < maxChains
		}
		for _, n := range fg.adj[u] {
			if onPath[n] {
				continue
			}
			if !dfs(n) {
				return false
			}
		}
		return true
	}
	dfs(from)
	return chains, nil
}

// String renders the fragmentation graph as adjacency lists.
func (fg *FragGraph) String() string {
	var sb strings.Builder
	for i, ns := range fg.adj {
		fmt.Fprintf(&sb, "G%d:", i)
		for _, n := range ns {
			fmt.Fprintf(&sb, " G%d", n)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
