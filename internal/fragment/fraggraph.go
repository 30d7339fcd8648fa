package fragment

import (
	"fmt"
	"strings"
)

// FragGraph is the fragmentation graph G' of §2.1: a node N_i per
// fragment G_i and an (undirected) edge E_ij for each non-empty
// disconnection set DS_ij.
type FragGraph struct {
	n   int
	adj map[int][]int
}

// FragmentationGraph returns G' of the fragmentation. A FragGraph is
// immutable; the fragmentation and those patched from it share it.
func (fr *Fragmentation) FragmentationGraph() *FragGraph { return fr.meet.fg }

// NumFragments returns the number of fragmentation-graph nodes.
func (fg *FragGraph) NumFragments() int { return fg.n }

// NumLinks returns the number of undirected fragmentation-graph edges
// (non-empty disconnection sets).
func (fg *FragGraph) NumLinks() int {
	total := 0
	for _, ns := range fg.adj {
		total += len(ns)
	}
	return total / 2
}

// Adjacent returns the fragments sharing a disconnection set with i.
func (fg *FragGraph) Adjacent(i int) []int { return fg.adj[i] }

// IsLooselyConnected reports whether G' is acyclic (a forest) — the
// paper's "loosely connected" property: "if the fragmentation graph is
// loosely connected, then it is easier to select fragments involved in
// the computation … there is only one chain of fragments" (§2.1).
func (fg *FragGraph) IsLooselyConnected() bool {
	// A forest has (#nodes − #components) edges; equivalently, no cycle
	// is found by DFS.
	seen := make([]bool, fg.n)
	for start := 0; start < fg.n; start++ {
		if seen[start] {
			continue
		}
		// Iterative DFS carrying the parent.
		type frame struct{ node, parent int }
		stack := []frame{{start, -1}}
		seen[start] = true
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, n := range fg.adj[f.node] {
				if n == f.parent {
					continue
				}
				if seen[n] {
					return false
				}
				seen[n] = true
				stack = append(stack, frame{n, f.node})
			}
		}
	}
	return true
}

// CycleCount returns the circuit rank |E| − |V| + #components of G':
// zero exactly when the fragmentation is loosely connected, and
// otherwise the number of independent cycles — the paper's "minimize
// the number of cycles" goal measured directly.
func (fg *FragGraph) CycleCount() int {
	seen := make([]bool, fg.n)
	comps := 0
	for start := 0; start < fg.n; start++ {
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
	return fg.NumLinks() - fg.n + comps
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
	if from < 0 || from >= fg.n || to < 0 || to >= fg.n {
		return nil, fmt.Errorf("fragment: chain endpoints %d, %d out of range [0, %d)", from, to, fg.n)
	}
	if from == to {
		return [][]int{{from}}, nil
	}
	var chains [][]int
	onPath := make([]bool, fg.n)
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
	for i := 0; i < fg.n; i++ {
		fmt.Fprintf(&sb, "G%d:", i)
		for _, n := range fg.adj[i] {
			fmt.Fprintf(&sb, " G%d", n)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
