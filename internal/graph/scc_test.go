package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSCCSimpleCycle(t *testing.T) {
	g := New()
	g.AddEdge(Edge{From: 0, To: 1, Weight: 1})
	g.AddEdge(Edge{From: 1, To: 2, Weight: 1})
	g.AddEdge(Edge{From: 2, To: 0, Weight: 1})
	g.AddEdge(Edge{From: 2, To: 3, Weight: 1})
	comps := g.StronglyConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	// Reverse topological order: the sink {3} first.
	if !reflect.DeepEqual(comps[0], []NodeID{3}) {
		t.Errorf("first component = %v, want [3]", comps[0])
	}
	if !reflect.DeepEqual(comps[1], []NodeID{0, 1, 2}) {
		t.Errorf("second component = %v, want [0 1 2]", comps[1])
	}
}

func TestSCCDAGIsSingletons(t *testing.T) {
	g := New()
	g.AddEdge(Edge{From: 0, To: 1, Weight: 1})
	g.AddEdge(Edge{From: 1, To: 2, Weight: 1})
	comps := g.StronglyConnectedComponents()
	if len(comps) != 3 {
		t.Errorf("DAG should give singleton components: %v", comps)
	}
}

func TestSCCDeepPathNoOverflow(t *testing.T) {
	// 50k-node path: the iterative Tarjan must not blow the stack.
	g := New()
	const n = 50000
	for i := 0; i+1 < n; i++ {
		g.AddEdge(Edge{From: NodeID(i), To: NodeID(i + 1), Weight: 1})
	}
	comps := g.StronglyConnectedComponents()
	if len(comps) != n {
		t.Errorf("components = %d, want %d", len(comps), n)
	}
}

func TestCondensation(t *testing.T) {
	g := New()
	// Two 2-cycles joined by one edge.
	g.AddBoth(Edge{From: 0, To: 1, Weight: 1})
	g.AddBoth(Edge{From: 10, To: 11, Weight: 1})
	g.AddEdge(Edge{From: 1, To: 10, Weight: 7})
	dag, comps, compOf := g.Condensation()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if dag.NumNodes() != 2 || dag.NumEdges() != 1 {
		t.Fatalf("condensation = %v", dag)
	}
	e := dag.Edges()[0]
	if e.Weight != 7 {
		t.Errorf("crossing weight = %v, want 7", e.Weight)
	}
	if compOf[0] != compOf[1] || compOf[10] != compOf[11] || compOf[0] == compOf[10] {
		t.Errorf("compOf = %v", compOf)
	}
}

// TestPropertySCCPartition: components partition the node set, members
// of one component reach each other, the condensation is acyclic, and
// the components come in reverse topological order — every
// condensation edge runs from a later component to an earlier one, the
// order the bitset kernel's level and row propagation rely on.
func TestPropertySCCPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			g.AddNode(NodeID(i), Coord{})
		}
		for k := 0; k < n*2; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				g.AddEdge(Edge{From: NodeID(i), To: NodeID(j), Weight: 1})
			}
		}
		comps := g.StronglyConnectedComponents()
		compOf := make(map[NodeID]int)
		total := 0
		for ci, comp := range comps {
			total += len(comp)
			for _, id := range comp {
				if _, seen := compOf[id]; seen {
					return false
				}
				compOf[id] = ci
			}
			// Mutual reachability within the component.
			if len(comp) > 1 {
				r := g.Reachable(comp[0])
				for _, id := range comp[1:] {
					if _, ok := r[id]; !ok {
						return false
					}
					back := g.Reachable(id)
					if _, ok := back[comp[0]]; !ok {
						return false
					}
				}
			}
		}
		if total != g.NumNodes() {
			return false
		}
		for _, e := range g.Edges() {
			if compOf[e.From] < compOf[e.To] {
				return false
			}
		}
		// The condensation has no cycle: every SCC of it is a singleton.
		dag, _, _ := g.Condensation()
		for _, c := range dag.StronglyConnectedComponents() {
			if len(c) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
