package tc

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/relation"
)

// This file pins down the degenerate shapes of the cost fixpoint
// (shortest.go): self loops, zero-weight edges, unreachable entry sets
// and single-node fragments — the cases a fragmented deployment
// actually produces (a one-city fragment, a border node with no local
// edges, an entry set on the far side of a directed cut). The bitset
// kernel's share of them is in bitset_test.go's tables.

// TestShortestFromSelfLoop: a self loop is a path of length one, so it
// appears as a src→src fact with the loop cost; a cheaper cycle
// through a neighbour must win over a dearer self loop.
func TestShortestFromSelfLoop(t *testing.T) {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(1), int64(1), 5.0})
	r.MustInsert(relation.Tuple{int64(1), int64(2), 1.0})
	r.MustInsert(relation.Tuple{int64(2), int64(1), 1.0})
	got, _, err := ShortestFromCtx(context.Background(), r, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	costs := indexCosts(got)
	if c := costs[relation.Tuple{int64(1), int64(1)}.Key()]; c != 2.0 {
		t.Errorf("cost(1→1) = %v, want 2 (cycle beats self loop)", c)
	}
}

// TestShortestFromZeroWeightEdges: zero-weight edges propagate costs
// without inflating them, and the fixpoint terminates despite the
// zero-weight cycle (no strict improvement recurs).
func TestShortestFromZeroWeightEdges(t *testing.T) {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(1), int64(2), 0.0})
	r.MustInsert(relation.Tuple{int64(2), int64(1), 0.0})
	r.MustInsert(relation.Tuple{int64(2), int64(3), 4.0})
	got, _, err := ShortestFromCtx(context.Background(), r, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	costs := indexCosts(got)
	if c := costs[relation.Tuple{int64(1), int64(1)}.Key()]; c != 0.0 {
		t.Errorf("cost(1→1) = %v, want 0 via the zero cycle", c)
	}
	if c := costs[relation.Tuple{int64(1), int64(3)}.Key()]; c != 4.0 {
		t.Errorf("cost(1→3) = %v, want 4", c)
	}
}

// TestShortestFromUnreachableEntrySet: entry nodes that are absent or
// pure sinks derive no facts, and the stats stay zeroed.
func TestShortestFromUnreachableEntrySet(t *testing.T) {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(1), int64(2), 1.0})
	got, st, err := ShortestFromCtx(context.Background(), r, []graph.NodeID{2, 42})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || st.ResultTuples != 0 {
		t.Errorf("sink/absent entry set derived %d facts", got.Len())
	}
}

// TestShortestClosureSingleNode: a universe of one self-looping node —
// the single-node fragment — closes to exactly one fact.
func TestShortestClosureSingleNode(t *testing.T) {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(3), int64(3), 1.5})
	got, st, err := ShortestClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("closure of a self loop has %d facts, want 1", got.Len())
	}
	if c := got.Tuples()[0][2].(float64); c != 1.5 {
		t.Errorf("cost = %v, want 1.5", c)
	}
	if st.Iterations == 0 {
		t.Error("closure reported zero iterations")
	}
}

// TestShortestFromParallelEdgesKeepMin: duplicate edges collapse to
// the cheapest before the fixpoint runs (normalizeEdges' MinBy).
func TestShortestFromParallelEdgesKeepMin(t *testing.T) {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(1), int64(2), 9.0})
	r.MustInsert(relation.Tuple{int64(1), int64(2), 2.0})
	got, _, err := ShortestFromCtx(context.Background(), r, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	costs := indexCosts(got)
	if c := costs[relation.Tuple{int64(1), int64(2)}.Key()]; c != 2.0 {
		t.Errorf("cost(1→2) = %v, want the cheaper parallel edge 2", c)
	}
}

// TestCondensedClosureSelfLoopOnly: a graph whose only cycle is a self
// loop — in the condensation closure (BitsetClosure) the node must
// reach itself, its loop-free sibling must not.
func TestCondensedClosureSelfLoopOnly(t *testing.T) {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(1), int64(1), 1.0})
	r.MustInsert(relation.Tuple{int64(1), int64(2), 1.0})
	got, _, err := BitsetClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(relation.Tuple{int64(1), int64(1)}) {
		t.Error("self-looping node does not reach itself")
	}
	if got.Contains(relation.Tuple{int64(2), int64(2)}) {
		t.Error("loop-free sink reaches itself")
	}
}

// TestFloydWarshallSelfAndZero: the dense oracle reports 0 for every
// node to itself and handles zero-weight edges.
func TestFloydWarshallSelfAndZero(t *testing.T) {
	g := graph.New()
	g.AddEdge(graph.Edge{From: 1, To: 2, Weight: 0})
	g.AddEdge(graph.Edge{From: 2, To: 3, Weight: 2})
	dist := FloydWarshallCosts(g)
	if d := dist[1][3]; math.Abs(d-2) > 1e-12 {
		t.Errorf("dist(1,3) = %v, want 2", d)
	}
	if d := dist[3][3]; d != 0 {
		t.Errorf("dist(3,3) = %v, want 0", d)
	}
}
