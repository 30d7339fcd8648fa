package tc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/relation"
)

// corpusGraphs builds the generator corpus the engine-equivalence
// property is asserted over: grids (one big SCC), general and
// transportation graphs (symmetric, clustered), random directed graphs
// (cyclic condensations with non-trivial DAG structure), and the
// degenerate shapes.
func corpusGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	corpus := make(map[string]*graph.Graph)

	grid, err := gen.Grid(gen.GridConfig{Width: 8, Height: 8, DiagonalProb: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	corpus["grid-8x8"] = grid

	general, err := gen.General(gen.Defaults(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	corpus["general-40"] = general

	transport, err := gen.Transportation(gen.TransportConfig{
		Clusters: 3,
		Cluster:  gen.Defaults(12, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus["transport-3x12"] = transport

	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		n := 20 + int(seed)*7
		for i := 0; i < 2*n; i++ {
			g.AddEdge(graph.Edge{
				From:   graph.NodeID(rng.Intn(n)),
				To:     graph.NodeID(rng.Intn(n)),
				Weight: 1,
			})
		}
		corpus[fmt.Sprintf("directed-%d", seed)] = g
	}

	line := graph.New()
	for i := 0; i < 10; i++ {
		line.AddEdge(graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1})
	}
	corpus["line-10"] = line

	loops := graph.New()
	loops.AddEdge(graph.Edge{From: 1, To: 1, Weight: 1})
	loops.AddEdge(graph.Edge{From: 1, To: 2, Weight: 1})
	loops.AddEdge(graph.Edge{From: 2, To: 3, Weight: 1})
	loops.AddEdge(graph.Edge{From: 3, To: 2, Weight: 1})
	corpus["selfloop-cycle"] = loops

	// An isolated node (9) and a sink (3): a graph's CSR has a row for
	// each, which a CSR interned from the edge list had not for 9.
	island := graph.New()
	island.AddEdge(graph.Edge{From: 1, To: 2, Weight: 1})
	island.AddEdge(graph.Edge{From: 2, To: 3, Weight: 2})
	island.AddNode(9, graph.Coord{})
	corpus["isolated-node"] = island

	// One node and no edge: a one-city fragment with no local road.
	single := graph.New()
	single.AddNode(7, graph.Coord{})
	corpus["single-node"] = single

	return corpus
}

// denseFrom wraps the CSR of the graph the edges make.
func denseFrom(tb testing.TB, edges []graph.Edge) *DenseGraph {
	tb.Helper()
	g := graph.New()
	for _, e := range edges {
		g.AddEdge(e)
	}
	d, err := NewDenseGraph(g.CSR())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestBitsetClosureEquivalence is the engine-equivalence property:
// BitsetClosure over the edge relation, the kernel over the graph's CSR
// from every node (isolated ones included) and SemiNaiveClosure produce
// the same pair set on every corpus graph.
func TestBitsetClosureEquivalence(t *testing.T) {
	for name, g := range corpusGraphs(t) {
		t.Run(name, func(t *testing.T) {
			r := relation.FromGraph(g)
			want, _, err := SemiNaiveClosure(r)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := BitsetClosure(r)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, "bitset vs seminaive", got, want)
			d, err := NewDenseGraph(g.CSR())
			if err != nil {
				t.Fatal(err)
			}
			kernel, _, err := d.ReachFromCtx(context.Background(), g.Nodes())
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, "kernel vs seminaive", kernel.Relation(), want)
			if st.ResultTuples != got.Len() {
				t.Errorf("ResultTuples = %d, want %d", st.ResultTuples, got.Len())
			}
			if got.Len() > 0 && st.Iterations == 0 {
				t.Error("non-empty closure reported zero iterations")
			}
		})
	}
}

// TestBitsetReachableFromEquivalence asserts the entry-set-restricted
// kernel against the pushed-selection semi-naive fixpoint on random
// source sets, including sources absent from the graph.
func TestBitsetReachableFromEquivalence(t *testing.T) {
	for name, g := range corpusGraphs(t) {
		t.Run(name, func(t *testing.T) {
			r := relation.FromGraph(g)
			nodes := g.Nodes()
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 4; trial++ {
				k := 1 + rng.Intn(3)
				srcs := make([]graph.NodeID, 0, k+1)
				for i := 0; i < k; i++ {
					srcs = append(srcs, nodes[rng.Intn(len(nodes))])
				}
				srcs = append(srcs, graph.NodeID(1_000_000+trial)) // absent
				want, _, err := ReachableFrom(r, srcs)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := BitsetReachableFromCtx(context.Background(), r, srcs)
				if err != nil {
					t.Fatal(err)
				}
				assertSamePairs(t, fmt.Sprintf("sources %v", srcs), got, want)
			}
		})
	}
}

// TestBitsetReachableFromDuplicateSources: duplicate sources count
// once, matching ReachableFrom's set semantics (regression: duplicates
// used to emit duplicate tuples).
func TestBitsetReachableFromDuplicateSources(t *testing.T) {
	r := rel([3]float64{1, 2, 1}, [3]float64{2, 3, 1})
	srcs := []graph.NodeID{1, 1, 1}
	want, _, err := ReachableFrom(r, srcs)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := BitsetReachableFromCtx(context.Background(), r, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || want.Len() != 2 {
		t.Errorf("lens = %d (bitset), %d (seminaive), want 2", got.Len(), want.Len())
	}
	assertSamePairs(t, "duplicate sources", got, want)
}

// TestReachFromMatchesWrapper: the kernel method on a DenseGraph built
// from edges and the relation-fronted BitsetReachableFromCtx over the
// boxed form of the same edges give one pair set — ReachableFrom's —
// and one Stats, on parallel edges, self loops, duplicate and absent
// sources, edges listed in descending node id, a self loop as the only
// cycle and a zero-weight cycle. The method's matrix has the distinct
// present sources as rows in the order given, ascending columns, and
// the presence marker 1 in every cell that is a fact.
func TestReachFromMatchesWrapper(t *testing.T) {
	e := func(from, to graph.NodeID, w float64) graph.Edge { return graph.Edge{From: from, To: to, Weight: w} }
	type subquery struct {
		edges   []graph.Edge
		sources []graph.NodeID
	}
	cases := map[string]subquery{
		"parallel-edges-self-loops": {
			edges:   []graph.Edge{e(1, 2, 1), e(1, 2, 3), e(2, 2, 1), e(2, 3, 1), e(3, 1, 1), e(3, 1, 1), e(3, 4, 2), e(5, 5, 1), e(4, 6, 1)},
			sources: []graph.NodeID{5, 3, 4, 3, 99, 5},
		},
		"descending-ids": { // edges list 90 before 80 before 70 …
			edges:   []graph.Edge{e(90, 80, 1), e(80, 70, 1), e(70, 90, 1), e(70, 60, 1), e(60, 50, 1), e(50, 60, 1), e(40, 90, 1)},
			sources: []graph.NodeID{60, 40, 90, 7},
		},
		"no-present-source": {
			edges:   []graph.Edge{e(1, 2, 1)},
			sources: []graph.NodeID{2, 9},
		},
		"self-loop-only": { // 1 reaches itself, its loop-free successor 2 not
			edges:   []graph.Edge{e(1, 1, 1), e(1, 2, 1)},
			sources: []graph.NodeID{1, 2},
		},
		"zero-weight-cycle": { // reachability ignores the weights
			edges:   []graph.Edge{e(1, 2, 0), e(2, 1, 0), e(2, 2, 0), e(2, 3, 0)},
			sources: []graph.NodeID{3, 2, 1},
		},
	}
	for name, g := range corpusGraphs(t) {
		nodes := g.Nodes()
		cases[name] = subquery{g.Edges(), []graph.NodeID{nodes[len(nodes)-1], nodes[0], nodes[len(nodes)/2], nodes[0], 1_000_000}}
	}
	ctx := context.Background()
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			r := relation.FromEdges(c.edges)
			oracle, _, err := ReachableFrom(r, c.sources)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := BitsetReachableFromCtx(ctx, r, c.sources)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, "wrapper vs seminaive", want, oracle)
			if want.Len() != oracle.Len() || want.Arity() != 2 {
				t.Errorf("wrapper: %d rows of arity %d, want %d distinct pairs", want.Len(), want.Arity(), oracle.Len())
			}
			got, st, err := denseFrom(t, c.edges).ReachFromCtx(ctx, c.sources)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, "kernel vs wrapper", got.Relation(), want)
			if st != wantStats || got.Len() != want.Len() {
				t.Errorf("kernel: stats %+v over %d rows, wrapper %+v over %d", st, got.Len(), wantStats, want.Len())
			}
			var present []graph.NodeID // the distinct present sources, in the order given
			for _, s := range c.sources {
				if slices.Contains(got.Cols, s) && !slices.Contains(present, s) {
					present = append(present, s)
				}
			}
			if !slices.Equal(got.Rows, present) || !slices.IsSorted(got.Cols) {
				t.Fatalf("kernel: rows %v, columns %v; want rows %v and ascending columns", got.Rows, got.Cols, present)
			}
			for _, c := range got.Cost {
				if c != 1 && !math.IsInf(c, 1) {
					t.Fatalf("kernel: cell %v is neither the presence marker nor +Inf", c)
				}
			}
		})
	}
}

// TestReachFromAllocs: a connectivity leg allocates per component of
// the condensation and per result slice, never per row.
func TestReachFromAllocs(t *testing.T) {
	d := gridFragment(t, 16, 32) // one strongly connected component
	sources := []graph.NodeID{1000, 900, 800, 700, 600}
	rows := len(sources) * d.Nodes()
	if allocs := testing.AllocsPerRun(10, func() {
		if got, _, err := d.ReachFromCtx(context.Background(), sources); err != nil || got.Len() != rows {
			t.Fatalf("%v rows, err %v; want %d", got.Len(), err, rows)
		}
	}); allocs > 80 {
		t.Errorf("ReachFromCtx: %.0f allocations for %d rows, want at most 80", allocs, rows)
	}
}

// lateCancel is a context that reports cancellation from its n-th Err
// call on: a cancellation that lands mid-kernel, deterministically.
type lateCancel struct {
	context.Context
	n int
}

func (c *lateCancel) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestReachFromCanceledWhileEmitting: on one strongly connected
// component propagation is a single level, so a wide entry set spends
// its time emitting rows; a cancellation that lands there must surface
// as ErrCanceled, not as a completed table long after.
func TestReachFromCanceledWhileEmitting(t *testing.T) {
	d := gridFragment(t, 8, 8)
	for n, wantCanceled := range map[int]bool{0: true, 1: true, 10: true, 1 + d.Nodes(): false} {
		got, _, err := d.ReachFromCtx(&lateCancel{context.Background(), n}, []graph.NodeID{1000, 990})
		canceled := errors.Is(err, ErrCanceled) && errors.Is(err, context.Canceled)
		if canceled != wantCanceled || (got == nil) != wantCanceled {
			t.Errorf("cancellation at check %d: relation %v, err %v; want canceled = %v", n, got, err, wantCanceled)
		}
	}
}

// TestBitsetClosureEmpty checks the degenerate inputs: an empty relation
// closes to nothing, and an arity-2 relation is refused.
func TestBitsetClosureEmpty(t *testing.T) {
	empty := relation.New("src", "dst", "cost")
	got, st, err := BitsetClosure(empty)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || st.ResultTuples != 0 {
		t.Errorf("empty closure = %d tuples, stats %+v", got.Len(), st)
	}
	gotR, _, err := BitsetReachableFromCtx(context.Background(), empty, []graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Len() != 0 {
		t.Errorf("empty restricted closure = %d tuples", gotR.Len())
	}
	bad := relation.New("a", "b")
	if _, _, err := BitsetClosure(bad); err == nil {
		t.Error("BitsetClosure accepted an arity-2 relation")
	}
	if _, _, err := BitsetReachableFromCtx(context.Background(), bad, nil); err == nil {
		t.Error("BitsetReachableFromCtx accepted an arity-2 relation")
	}
}

// TestBitsetClosureNonIntegerFallback: there is no fallback for node
// values that are not int64 — both relation-fronted entry points refuse
// such a relation, as they refuse a bad arity.
func TestBitsetClosureNonIntegerFallback(t *testing.T) {
	r := relation.New("from", "to", "w")
	r.MustInsert(relation.Tuple{"a", "b", 1.0})
	r.MustInsert(relation.Tuple{"b", "c", 1.0})
	if _, _, err := BitsetClosure(r); err == nil {
		t.Error("BitsetClosure accepted string nodes")
	}
	if _, _, err := BitsetReachableFromCtx(context.Background(), r, nil); err == nil {
		t.Error("BitsetReachableFromCtx accepted string nodes")
	}
}

// assertSamePairs fails the test when two pair relations differ,
// reporting a few missing pairs from each side.
func assertSamePairs(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	gs, ws := pairSet(got), pairSet(want)
	for p := range ws {
		if !gs[p] {
			t.Errorf("%s: missing pair %v", label, p)
			return
		}
	}
	for p := range gs {
		if !ws[p] {
			t.Errorf("%s: extra pair %v", label, p)
			return
		}
	}
}

// FuzzBitsetClosure cross-checks the bitset kernel against the
// semi-naive fixpoint on arbitrary small edge lists: consecutive byte
// pairs are edges over a 16-node universe.
func FuzzBitsetClosure(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2})
	f.Add([]byte{1, 1, 1, 2, 2, 1})
	f.Add([]byte{0, 1, 1, 0, 2, 3, 3, 4, 4, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := relation.New("src", "dst", "cost")
		for i := 0; i+1 < len(data); i += 2 {
			r.MustInsert(relation.Tuple{int64(data[i] % 16), int64(data[i+1] % 16), 1.0})
		}
		want, _, err := SemiNaiveClosure(r)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := BitsetClosure(r)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePairs(t, "bitset vs seminaive", got, want)
		if len(data) >= 2 {
			src := graph.NodeID(data[0] % 16)
			wantR, _, err := ReachableFrom(r, []graph.NodeID{src})
			if err != nil {
				t.Fatal(err)
			}
			gotR, _, err := BitsetReachableFromCtx(context.Background(), r, []graph.NodeID{src})
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, "restricted bitset vs seminaive", gotR, wantR)
		}
	})
}
