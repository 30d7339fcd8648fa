package tc

import (
	"context"
	"fmt"
	"math/rand"
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

	return corpus
}

// TestBitsetClosureEquivalence is the engine-equivalence property:
// BitsetClosure, SemiNaiveClosure and CondensedClosure produce the same
// pair set on every corpus graph.
func TestBitsetClosureEquivalence(t *testing.T) {
	for name, g := range corpusGraphs(t) {
		t.Run(name, func(t *testing.T) {
			r := relation.FromGraph(g)
			want, _, err := CondensedClosure(r)
			if err != nil {
				t.Fatal(err)
			}
			sn, _, err := SemiNaiveClosure(r)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := BitsetClosure(r)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, "bitset vs condensed", got, want)
			assertSamePairs(t, "bitset vs seminaive", got, sn)
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

// TestBitsetClosureEmpty checks the degenerate inputs.
func TestBitsetClosureEmpty(t *testing.T) {
	empty := relation.New("src", "dst", "cost")
	got, st, err := BitsetClosure(empty)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || st.ResultTuples != 0 {
		t.Errorf("empty closure = %d tuples, stats %+v", got.Len(), st)
	}
	if _, _, err := BitsetClosure(relation.New("a", "b")); err == nil {
		t.Error("arity-2 relation accepted")
	}
	gotR, _, err := BitsetReachableFromCtx(context.Background(), empty, []graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Len() != 0 {
		t.Errorf("empty restricted closure = %d tuples", gotR.Len())
	}
}

// TestBitsetClosureNonIntegerFallback checks the generic-fixpoint
// fallback for non-int64 node values.
func TestBitsetClosureNonIntegerFallback(t *testing.T) {
	r := relation.New("from", "to", "w")
	r.MustInsert(relation.Tuple{"a", "b", 1.0})
	r.MustInsert(relation.Tuple{"b", "c", 1.0})
	got, _, err := BitsetClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("string-node closure = %d tuples, want 3", got.Len())
	}
	restricted, _, err := BitsetReachableFromCtx(context.Background(), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restricted.Len() != 0 {
		t.Errorf("restricted fallback with no sources = %d tuples, want 0", restricted.Len())
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
