package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// sccIDs runs CSR.SCC on g and maps each component's rows back to node
// ids, sorted ascending.
func sccIDs(g *Graph) [][]NodeID {
	c := g.CSR()
	rows, _ := c.SCC()
	comps := make([][]NodeID, len(rows))
	for i, comp := range rows {
		for _, k := range comp {
			comps[i] = append(comps[i], c.IDs[k])
		}
		slices.Sort(comps[i])
	}
	return comps
}

func TestSCCSimpleCycle(t *testing.T) {
	g := New()
	g.AddEdge(Edge{From: 0, To: 1, Weight: 1})
	g.AddEdge(Edge{From: 1, To: 2, Weight: 1})
	g.AddEdge(Edge{From: 2, To: 0, Weight: 1})
	g.AddEdge(Edge{From: 2, To: 3, Weight: 1})
	comps := sccIDs(g)
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
	comps := sccIDs(g)
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
	comps := sccIDs(g)
	if len(comps) != n {
		t.Errorf("components = %d, want %d", len(comps), n)
	}
}

// TestCondensation: two 2-cycles joined by one edge condense to two
// components, each row mapped to the component that lists it, and the
// crossing edge runs from the later component to the earlier one.
func TestCondensation(t *testing.T) {
	g := New()
	g.AddBoth(Edge{From: 0, To: 1, Weight: 1})
	g.AddBoth(Edge{From: 10, To: 11, Weight: 1})
	g.AddEdge(Edge{From: 1, To: 10, Weight: 7})
	c := g.CSR()
	comps, compOf := c.SCC()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	row := func(id NodeID) int32 { k, _ := c.Row(id); return k }
	if compOf[row(0)] != compOf[row(1)] || compOf[row(10)] != compOf[row(11)] || compOf[row(1)] <= compOf[row(10)] {
		t.Errorf("compOf = %v over rows %v", compOf, c.IDs)
	}
	for ci, comp := range comps {
		for _, k := range comp {
			if compOf[k] != int32(ci) {
				t.Errorf("row %d listed in component %d, mapped to %d", k, ci, compOf[k])
			}
		}
	}
}

// TestPropertySCCPartition: components partition the node set, members
// of one component reach each other, and the components come in
// reverse topological order — every condensation edge runs from a
// later component to an earlier one, the order the bitset kernel's
// level and row propagation rely on. That order also makes the
// condensation acyclic: a cycle would need an edge to a later
// component.
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
		comps := sccIDs(g)
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
