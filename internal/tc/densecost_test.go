package tc

import (
	"context"
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/relation"
)

// assertSameCosts asserts that two (src, dst, cost) relations hold the
// same pair set with costs equal to within 1e-9 (equally cheap paths
// can sum their float weights in different orders).
func assertSameCosts(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	gc, wc := indexCosts(got), indexCosts(want)
	for k, w := range wc {
		g, ok := gc[k]
		if !ok {
			t.Errorf("%s: missing pair %q (want cost %v)", label, k, w)
			return
		}
		if math.Abs(g-w) > 1e-9 {
			t.Errorf("%s: pair %q cost %v, want %v", label, k, g, w)
			return
		}
	}
	for k := range gc {
		if _, ok := wc[k]; !ok {
			t.Errorf("%s: extra pair %q", label, k)
			return
		}
	}
}

// randomCostEdges builds a random weighted edge list including
// self-loops, parallel edges and zero-weight edges.
func randomCostEdges(rng *rand.Rand, n, m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for k := range edges {
		edges[k] = graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n)), Weight: float64(rng.Intn(6))}
	}
	return edges
}

// TestDenseCostFromEquivalence is the engine-equivalence property for
// the cost kernel over each corpus graph's CSR: on random entry sets
// (including duplicate and absent sources) it matches ShortestFromCtx.
func TestDenseCostFromEquivalence(t *testing.T) {
	ctx := context.Background()
	for name, g := range corpusGraphs(t) {
		t.Run(name, func(t *testing.T) {
			r := relation.FromGraph(g)
			d, err := NewDenseGraph(g.CSR())
			if err != nil {
				t.Fatal(err)
			}
			nodes := g.Nodes()
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 4; trial++ {
				k := 1 + rng.Intn(3)
				srcs := make([]graph.NodeID, 0, k+2)
				for i := 0; i < k; i++ {
					srcs = append(srcs, nodes[rng.Intn(len(nodes))])
				}
				srcs = append(srcs, srcs[0])                       // duplicate
				srcs = append(srcs, graph.NodeID(1_000_000+trial)) // absent
				want, _, err := ShortestFromCtx(ctx, r, srcs)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := d.CostFromCtx(ctx, srcs)
				if err != nil {
					t.Fatal(err)
				}
				assertSameCosts(t, "dense vs seminaive", got.Relation(), want)
				if st.ResultTuples != got.Len() {
					t.Errorf("ResultTuples = %d, want %d", st.ResultTuples, got.Len())
				}
			}
		})
	}
}

// TestDenseCostClosureEquivalence: the cost kernel run from every node
// of a corpus graph's CSR matches the relational min-cost closure.
func TestDenseCostClosureEquivalence(t *testing.T) {
	ctx := context.Background()
	for name, g := range corpusGraphs(t) {
		t.Run(name, func(t *testing.T) {
			r := relation.FromGraph(g)
			d, err := NewDenseGraph(g.CSR())
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ShortestClosure(r)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := d.CostFromCtx(ctx, g.Nodes())
			if err != nil {
				t.Fatal(err)
			}
			assertSameCosts(t, "dense closure vs seminaive", got.Relation(), want)
		})
	}
}

// TestPropertyDenseCostMatchesDijkstra: on random weighted graphs the
// dense kernel agrees with graph Dijkstra for every derived pair (the
// oracle that does not share the relational substrate).
func TestPropertyDenseCostMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		_, g := randomEdgeRelation(rng, n, rng.Intn(3*n))
		src := graph.NodeID(rng.Intn(n))
		d, err := NewDenseGraph(g.CSR())
		if err != nil {
			return false
		}
		got, _, err := d.CostFromCtx(context.Background(), []graph.NodeID{src})
		if err != nil {
			return false
		}
		costs := indexCosts(got.Relation())
		dist, _ := g.ShortestPaths(src)
		for v, d := range dist {
			if v == src {
				continue // kernel derives paths of length ≥ 1 only
			}
			c, ok := costs[relation.Tuple{int64(src), int64(v)}.Key()]
			if !ok || math.Abs(c-d) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDenseCostSelfLoopsAndZeroWeights: self-loops appear as src→src
// facts at their loop cost, zero-weight edges propagate and terminate.
func TestDenseCostSelfLoopsAndZeroWeights(t *testing.T) {
	edges := []graph.Edge{
		{From: 1, To: 1, Weight: 3}, // self loop
		{From: 1, To: 2, Weight: 0}, // zero weight
		{From: 2, To: 3, Weight: 0},
		{From: 3, To: 2, Weight: 0}, // zero-weight cycle
	}
	want, _, err := ShortestFromCtx(context.Background(), relation.FromEdges(edges), []graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := denseFrom(t, edges).CostFromCtx(context.Background(), []graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCosts(t, "self-loop/zero-weight", got.Relation(), want)
	costs := indexCosts(got.Relation())
	if c := costs[relation.Tuple{int64(1), int64(1)}.Key()]; c != 3.0 {
		t.Errorf("self-loop cost = %v, want 3", c)
	}
	if c := costs[relation.Tuple{int64(1), int64(3)}.Key()]; c != 0.0 {
		t.Errorf("zero-weight chain cost = %v, want 0", c)
	}
}

// TestDenseCostUnreachableEntrySet: sources absent from the relation,
// or present only as destinations, derive nothing.
func TestDenseCostUnreachableEntrySet(t *testing.T) {
	d := denseFrom(t, []graph.Edge{{From: 1, To: 2, Weight: 1}})
	got, st, err := d.CostFromCtx(context.Background(), []graph.NodeID{2, 99})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("got %d facts from sink/absent entry set, want 0", got.Len())
	}
	if st.Iterations != 0 {
		t.Errorf("Iterations = %d, want 0 for empty propagation", st.Iterations)
	}
}

// TestDenseCostValidation: the kernel refuses a negative weight, which
// graph files may carry, with the sentinel the relational fixpoint
// refuses it with. (The fixpoint's own checks of a relation's shape —
// arity, cost type — are TestNormalizeEdgesErrors'.)
func TestDenseCostValidation(t *testing.T) {
	edges := []graph.Edge{{From: 1, To: 2, Weight: 1}, {From: 2, To: 3, Weight: -1}}
	g := graph.New()
	for _, e := range edges {
		g.AddEdge(e)
	}
	if _, err := NewDenseGraph(g.CSR()); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("NewDenseGraph on a negative weight: %v, want ErrNegativeWeight", err)
	}
	if _, _, err := ShortestFromCtx(context.Background(), relation.FromEdges(edges), []graph.NodeID{1}); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("ShortestFromCtx on a negative weight: %v, want ErrNegativeWeight", err)
	}
}

// TestDenseCostVectorMatchesShortestPathsMulti: the vector-seeded
// single-row propagation (the pipelined primitive) matches the
// graph-backed multi-source Dijkstra, including seed nodes kept at
// their seed cost, ignored negative and absent seeds, and a last trial
// seeded with every node that has no out-edge (an isolated node among
// them on the isolated-node graph) — from which, as sources, the cost
// kernel derives no path.
func TestDenseCostVectorMatchesShortestPathsMulti(t *testing.T) {
	for name, g := range corpusGraphs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDenseGraph(g.CSR())
			if err != nil {
				t.Fatal(err)
			}
			nodes := g.Nodes()
			sinks := map[graph.NodeID]float64{graph.NodeID(3_000_000): 0} // absent: ignored
			for _, v := range nodes {
				if len(g.Out(v)) == 0 {
					sinks[v] = 1.5
				}
			}
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 5; trial++ {
				seed := map[graph.NodeID]float64{
					nodes[rng.Intn(len(nodes))]: float64(rng.Intn(5)),
					nodes[rng.Intn(len(nodes))]: 0,
					graph.NodeID(2_000_000):     -1, // ignored: negative
				}
				if trial == 4 {
					seed = sinks
					rows, _, err := d.CostFromCtx(context.Background(), slices.Collect(maps.Keys(sinks)))
					if err != nil {
						t.Fatal(err)
					}
					if rows.Len() != 0 {
						t.Errorf("sources without out-edges derived %v", rows.Relation())
					}
				}
				want, _ := g.ShortestPathsMulti(seed)
				got, err := d.CostVectorCtx(context.Background(), seed)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d: %d nodes, want %d", trial, len(got), len(want))
				}
				for v, c := range want {
					if math.Abs(got[v]-c) > 1e-9 {
						t.Errorf("trial %d: dist(%d) = %v, want %v", trial, v, got[v], c)
					}
				}
			}
		})
	}
}

// TestDenseGraphCounts: Nodes/Edges reflect the wrapped snapshot.
func TestDenseGraphCounts(t *testing.T) {
	d := denseFrom(t, []graph.Edge{
		{From: 1, To: 2, Weight: 1},
		{From: 1, To: 2, Weight: 2}, // parallel edge kept
		{From: 2, To: 3, Weight: 1},
	})
	if d.Nodes() != 3 || d.Edges() != 3 {
		t.Errorf("Nodes/Edges = %d/%d, want 3/3", d.Nodes(), d.Edges())
	}
	// Parallel edges collapse to the cheaper cost in results.
	got, _, err := d.CostFromCtx(context.Background(), []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	costs := indexCosts(got.Relation())
	if c := costs[relation.Tuple{int64(1), int64(2)}.Key()]; c != 1.0 {
		t.Errorf("parallel edge min cost = %v, want 1", c)
	}
}

// TestDenseCostSingleNodeFragment: a single-node universe (one self
// loop) and an empty graph are handled without special cases.
func TestDenseCostSingleNodeFragment(t *testing.T) {
	ctx := context.Background()
	got, st, err := denseFrom(t, nil).CostFromCtx(ctx, []graph.NodeID{1})
	if err != nil || got.Len() != 0 || st.ResultTuples != 0 {
		t.Errorf("empty graph: got %d facts, err %v", got.Len(), err)
	}
	got, _, err = denseFrom(t, []graph.Edge{{From: 7, To: 7, Weight: 2.5}}).CostFromCtx(ctx, []graph.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	costs := indexCosts(got.Relation())
	if len(costs) != 1 || costs[relation.Tuple{int64(7), int64(7)}.Key()] != 2.5 {
		t.Errorf("single self-loop node: got %v", costs)
	}
}

// TestPropertyDenseRandomCostRelations hammers the kernel with random
// edge lists that include self-loops, duplicates and zero weights.
func TestPropertyDenseRandomCostRelations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		edges := randomCostEdges(rng, n, rng.Intn(4*n))
		srcs := []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		want, _, err := ShortestFromCtx(context.Background(), relation.FromEdges(edges), srcs)
		if err != nil {
			return false
		}
		got, _, err := denseFrom(t, edges).CostFromCtx(context.Background(), srcs)
		if err != nil {
			return false
		}
		wc, gc := indexCosts(want), indexCosts(got.Relation())
		if len(wc) != len(gc) {
			return false
		}
		for k, w := range wc {
			g, ok := gc[k]
			if !ok || math.Abs(g-w) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzDenseCost cross-checks the dense cost kernel against the
// relational min-cost fixpoint on arbitrary small weighted edge lists:
// consecutive byte triples are (src, dst, cost) edges over a 16-node
// universe with costs in [0, 7].
func FuzzDenseCost(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 2})
	f.Add([]byte{1, 1, 0, 1, 2, 3, 2, 1, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 0, 2, 3, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var edges []graph.Edge
		for i := 0; i+2 < len(data); i += 3 {
			edges = append(edges, graph.Edge{
				From: graph.NodeID(data[i] % 16), To: graph.NodeID(data[i+1] % 16), Weight: float64(data[i+2] % 8),
			})
		}
		r, d := relation.FromEdges(edges), denseFrom(t, edges)
		var srcs []graph.NodeID
		if len(data) > 0 {
			srcs = append(srcs, graph.NodeID(data[0]%16))
		}
		if len(data) > 1 {
			srcs = append(srcs, graph.NodeID(data[1]%16))
		}
		want, _, err := ShortestFromCtx(context.Background(), r, srcs)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := d.CostFromCtx(context.Background(), srcs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCosts(t, "dense vs seminaive", got.Relation(), want)

		wantC, _, err := ShortestClosure(r)
		if err != nil {
			t.Fatal(err)
		}
		gotC, _, err := d.CostFromCtx(context.Background(), d.csr.IDs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCosts(t, "dense closure vs seminaive", gotC.Relation(), wantC)
	})
}

// gridFragment is a rows×cols lattice with symmetric unit-ish edges,
// node ids descending along the edge list.
func gridFragment(tb testing.TB, rows, cols int) *DenseGraph {
	tb.Helper()
	id := func(r, c int) graph.NodeID { return graph.NodeID(1000 - (r*cols + c)) }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{From: id(r, c), To: id(r, c+1), Weight: 1}, graph.Edge{From: id(r, c+1), To: id(r, c), Weight: 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{From: id(r, c), To: id(r+1, c), Weight: 1.5}, graph.Edge{From: id(r+1, c), To: id(r, c), Weight: 1.5})
			}
		}
	}
	return denseFrom(tb, edges)
}

// TestDenseCostBornSorted: the kernel's matrix has the CSR's ascending
// IDs as its columns, shared and not copied, whatever the edge order;
// one row per distinct present source in the order given; and Each, the
// relation adapter and the wire walk it in leg-table order — by
// destination, the sources of one destination in row order.
func TestDenseCostBornSorted(t *testing.T) {
	d := gridFragment(t, 4, 5)
	sources := []graph.NodeID{990, 1000, 985, 990, 7} // a duplicate and an absent node
	got, st, err := d.CostFromCtx(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Cols[0] != &d.csr.IDs[0] || !slices.IsSorted(got.Cols) {
		t.Fatalf("columns %v are not the CSR's ascending IDs", got.Cols)
	}
	if !slices.Equal(got.Rows, []graph.NodeID{990, 1000, 985}) {
		t.Fatalf("rows %v, want the distinct present sources [990 1000 985]", got.Rows)
	}
	if got.Len() != 3*20 || st.ResultTuples != got.Len() || len(got.Cost) != 3*20 {
		t.Fatalf("%d facts (stats %d) in %d cells, want 60: 3 distinct present sources × 20 nodes", got.Len(), st.ResultTuples, len(got.Cost))
	}
	i := 0
	got.Each(func(src, dst graph.NodeID, cost float64) {
		wantDst, wantSrc := graph.NodeID(981+i/3), []graph.NodeID{990, 1000, 985}[i%3]
		if src != wantSrc || dst != wantDst {
			t.Fatalf("fact %d is (%d, %d, %v), want (%d, %d, _)", i, src, dst, cost, wantSrc, wantDst)
		}
		i++
	})
}

// TestCostMatrixFacts: FactMatrix rebuilds a matrix from its facts in
// any order — rows in the order their sources first occur, the distinct
// destinations as columns, the least cost of a repeated pair — and the
// rebuilt matrix holds the same facts; Col finds a node's column by
// binary search and reports a node that has none.
func TestCostMatrixFacts(t *testing.T) {
	type fact struct {
		src, dst graph.NodeID
		cost     float64
	}
	facts := []fact{{9, 4, 2}, {1, 2, 3.5}, {9, 2, 0.5}, {1, 8, 7}, {9, 4, 1}}
	m := FactMatrix(len(facts), func(i int) (graph.NodeID, graph.NodeID, float64) {
		return facts[i].src, facts[i].dst, facts[i].cost
	})
	if !slices.Equal(m.Rows, []graph.NodeID{9, 1}) || !slices.Equal(m.Cols, []graph.NodeID{2, 4, 8}) {
		t.Fatalf("rows %v, columns %v; want [9 1], [2 4 8]", m.Rows, m.Cols)
	}
	var got []fact
	m.Each(func(src, dst graph.NodeID, cost float64) { got = append(got, fact{src, dst, cost}) })
	want := []fact{{9, 2, 0.5}, {1, 2, 3.5}, {9, 4, 1}, {1, 8, 7}}
	if !slices.Equal(got, want) || m.Len() != len(want) {
		t.Errorf("facts %v (Len %d), want %v", got, m.Len(), want)
	}
	for id, want := range map[graph.NodeID]int{2: 0, 4: 1, 8: 2} {
		if c, ok := m.Col(id); !ok || c != want {
			t.Errorf("Col(%d) = %d, %v; want %d, true", id, c, ok, want)
		}
	}
	for _, id := range []graph.NodeID{1, 3, 9} {
		if _, ok := m.Col(id); ok {
			t.Errorf("Col(%d) found a column", id)
		}
	}
	if empty := FactMatrix(0, nil); empty.Len() != 0 || len(empty.Cols) != 0 || empty.Relation().Len() != 0 {
		t.Errorf("no facts: %+v", empty)
	}
}

// TestDenseCostConcurrentFirstUse is for -race: a site's first legs —
// cost and connectivity — can arrive together, and the kernels share
// the snapshot's CSR and write only their own matrices.
func TestDenseCostConcurrentFirstUse(t *testing.T) {
	d := gridFragment(t, 8, 8)
	sources := []graph.NodeID{1000, 950}
	want, _, err := gridFragment(t, 8, 8).CostFromCtx(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := d.CostFromCtx
			if g%2 == 1 {
				run = d.ReachFromCtx
			}
			got, _, err := run(context.Background(), sources)
			if err != nil {
				t.Error(err)
				return
			}
			if g%2 == 1 {
				assertSamePairs(t, "concurrent first use", got.Relation(), want.Relation())
				return
			}
			assertSameCosts(t, "concurrent first use", got.Relation(), want.Relation())
		}()
	}
	wg.Wait()
}

// TestDenseCostAllocs: nothing is allocated per fact — a call
// allocates its matrix and a fixed number of scratch slices.
func TestDenseCostAllocs(t *testing.T) {
	d := gridFragment(t, 16, 32)
	sources := []graph.NodeID{1000, 900, 800, 700, 600}
	rows := len(sources) * d.Nodes()
	if allocs := testing.AllocsPerRun(10, func() {
		if got, _, err := d.CostFromCtx(context.Background(), sources); err != nil || got.Len() != rows {
			t.Fatalf("%v rows, err %v; want %d", got.Len(), err, rows)
		}
	}); allocs > 24 {
		t.Errorf("CostFromCtx: %.0f allocations for %d facts, want at most 24", allocs, rows)
	}
}

// TestCostVectorCanceledMidPropagation: the pipelined walk's kernel
// observes ctx before each frontier round and once after the last, so a
// cancellation that lands at any of those checks surfaces as
// ErrCanceled with no vector, never as a partial vector; one that lands
// after the last check leaves the answer whole.
func TestCostVectorCanceledMidPropagation(t *testing.T) {
	d := gridFragment(t, 8, 8)
	seed := map[graph.NodeID]float64{1000: 0, 990: 2}
	count := &lateCancel{context.Background(), math.MaxInt}
	want, err := d.CostVectorCtx(count, seed)
	if err != nil {
		t.Fatal(err)
	}
	checks := math.MaxInt - count.n
	if checks < 3 {
		t.Fatalf("%d ctx checks: want a propagation of several rounds", checks)
	}
	for n := 0; n <= checks; n++ {
		got, err := d.CostVectorCtx(&lateCancel{context.Background(), n}, seed)
		canceled := errors.Is(err, ErrCanceled) && errors.Is(err, context.Canceled)
		if wantCanceled := n < checks; canceled != wantCanceled || (got == nil) != wantCanceled {
			t.Errorf("cancellation at check %d of %d: %d costs, err %v; want canceled = %v", n, checks, len(got), err, wantCanceled)
		} else if !canceled && !maps.Equal(got, want) {
			t.Errorf("cancellation after the last check: %v, want %v", got, want)
		}
	}
}
