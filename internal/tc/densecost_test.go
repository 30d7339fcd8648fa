package tc

import (
	"context"
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

// randomCostRelation builds a random weighted edge relation including
// self-loops, parallel edges and zero-weight edges.
func randomCostRelation(rng *rand.Rand, n, m int) *relation.Relation {
	r := relation.New("src", "dst", "cost")
	for k := 0; k < m; k++ {
		r.MustInsert(relation.Tuple{
			int64(rng.Intn(n)), int64(rng.Intn(n)), float64(rng.Intn(6)),
		})
	}
	return r
}

// TestDenseCostFromEquivalence is the engine-equivalence property for
// the cost kernel: on every corpus graph and random entry set
// (including absent sources), DenseCostFrom matches ShortestFrom.
func TestDenseCostFromEquivalence(t *testing.T) {
	for name, g := range corpusGraphs(t) {
		t.Run(name, func(t *testing.T) {
			r := relation.FromGraph(g)
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
				want, _, err := ShortestFromCtx(context.Background(), r, srcs)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := DenseCostFrom(r, srcs)
				if err != nil {
					t.Fatal(err)
				}
				assertSameCosts(t, "dense vs seminaive", got, want)
				if st.ResultTuples != got.Len() {
					t.Errorf("ResultTuples = %d, want %d", st.ResultTuples, got.Len())
				}
			}
		})
	}
}

// TestDenseCostClosureEquivalence: the full dense closure matches the
// relational min-cost fixpoint and the Floyd-Warshall oracle.
func TestDenseCostClosureEquivalence(t *testing.T) {
	for name, g := range corpusGraphs(t) {
		t.Run(name, func(t *testing.T) {
			r := relation.FromGraph(g)
			want, _, err := ShortestClosure(r)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := DenseCostClosure(r)
			if err != nil {
				t.Fatal(err)
			}
			assertSameCosts(t, "dense closure vs seminaive", got, want)
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
		r, g := randomEdgeRelation(rng, n, rng.Intn(3*n))
		src := graph.NodeID(rng.Intn(n))
		got, _, err := DenseCostFrom(r, []graph.NodeID{src})
		if err != nil {
			return false
		}
		costs := indexCosts(got)
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
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(1), int64(1), 3.0}) // self loop
	r.MustInsert(relation.Tuple{int64(1), int64(2), 0.0}) // zero weight
	r.MustInsert(relation.Tuple{int64(2), int64(3), 0.0})
	r.MustInsert(relation.Tuple{int64(3), int64(2), 0.0}) // zero-weight cycle
	want, _, err := ShortestFromCtx(context.Background(), r, []graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DenseCostFrom(r, []graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCosts(t, "self-loop/zero-weight", got, want)
	costs := indexCosts(got)
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
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(1), int64(2), 1.0})
	got, st, err := DenseCostFrom(r, []graph.NodeID{2, 99})
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

// TestDenseCostValidation: the kernel rejects what normalizeEdges
// rejects, and falls back to the relational fixpoint on non-int64
// nodes.
func TestDenseCostValidation(t *testing.T) {
	bad := relation.New("a", "b")
	bad.MustInsert(relation.Tuple{int64(1), int64(2)})
	if _, _, err := DenseCostFrom(bad, nil); err == nil {
		t.Error("arity-2 relation accepted")
	}
	neg := relation.New("src", "dst", "cost")
	neg.MustInsert(relation.Tuple{int64(1), int64(2), -1.0})
	if _, _, err := DenseCostFrom(neg, []graph.NodeID{1}); err == nil {
		t.Error("negative cost accepted")
	}
	badCost := relation.New("src", "dst", "cost")
	badCost.MustInsert(relation.Tuple{int64(1), int64(2), int64(1)})
	if _, _, err := DenseCostFrom(badCost, []graph.NodeID{1}); err == nil {
		t.Error("non-float cost accepted")
	}

	strNodes := relation.New("src", "dst", "cost")
	strNodes.MustInsert(relation.Tuple{"a", "b", 1.0})
	strNodes.MustInsert(relation.Tuple{"b", "c", 2.0})
	if _, err := denseOf(strNodes, true); err != ErrNodesNotInt64 {
		t.Fatalf("denseOf on string nodes: %v, want ErrNodesNotInt64", err)
	}
	// The wrapper silently falls back; string sources cannot be
	// expressed as NodeIDs, so seed with none and check the closure
	// variant instead.
	got, _, err := DenseCostClosure(strNodes)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ShortestClosure(strNodes)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCosts(t, "string-node fallback", got, want)
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
						t.Errorf("sources without out-edges derived %v", rows.Tuples())
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
	costs := indexCosts(got)
	if c := costs[relation.Tuple{int64(1), int64(2)}.Key()]; c != 1.0 {
		t.Errorf("parallel edge min cost = %v, want 1", c)
	}
}

// TestDenseCostSingleNodeFragment: a single-node universe (one self
// loop) and an empty relation are handled without special cases.
func TestDenseCostSingleNodeFragment(t *testing.T) {
	empty := relation.New("src", "dst", "cost")
	got, st, err := DenseCostFrom(empty, []graph.NodeID{1})
	if err != nil || got.Len() != 0 || st.ResultTuples != 0 {
		t.Errorf("empty relation: got %d facts, err %v", got.Len(), err)
	}
	single := relation.New("src", "dst", "cost")
	single.MustInsert(relation.Tuple{int64(7), int64(7), 2.5})
	got, _, err = DenseCostFrom(single, []graph.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	costs := indexCosts(got)
	if len(costs) != 1 || costs[relation.Tuple{int64(7), int64(7)}.Key()] != 2.5 {
		t.Errorf("single self-loop node: got %v", costs)
	}
}

// TestPropertyDenseRandomCostRelations hammers the kernel with random
// relations that include self-loops, duplicates and zero weights.
func TestPropertyDenseRandomCostRelations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		r := randomCostRelation(rng, n, rng.Intn(4*n))
		srcs := []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		want, _, err := ShortestFromCtx(context.Background(), r, srcs)
		if err != nil {
			return false
		}
		got, _, err := DenseCostFrom(r, srcs)
		if err != nil {
			return false
		}
		wc, gc := indexCosts(want), indexCosts(got)
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
		r := relation.New("src", "dst", "cost")
		for i := 0; i+2 < len(data); i += 3 {
			r.MustInsert(relation.Tuple{
				int64(data[i] % 16), int64(data[i+1] % 16), float64(data[i+2] % 8),
			})
		}
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
		got, _, err := DenseCostFrom(r, srcs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCosts(t, "dense vs seminaive", got, want)

		wantC, _, err := ShortestClosure(r)
		if err != nil {
			t.Fatal(err)
		}
		gotC, _, err := DenseCostClosure(r)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCosts(t, "dense closure vs seminaive", gotC, wantC)
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

// TestDenseCostBornSorted: the kernel's relation is marked sorted by
// dst, destinations ascend by node id whatever the edge order, and
// the sources of one destination come in the order they were given.
func TestDenseCostBornSorted(t *testing.T) {
	d := gridFragment(t, 4, 5)
	sources := []graph.NodeID{990, 1000, 985, 990, 7} // a duplicate and an absent node
	got, st, err := d.CostFromCtx(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	if got.SortedBy() != 1 {
		t.Fatalf("SortedBy = %d, want 1", got.SortedBy())
	}
	if got.Len() != 3*20 || st.ResultTuples != got.Len() {
		t.Fatalf("%d rows (stats %d), want 60: 3 distinct present sources × 20 nodes", got.Len(), st.ResultTuples)
	}
	for i, row := range got.Tuples() {
		wantDst, wantSrc := int64(981+i/3), []int64{990, 1000, 985}[i%3]
		if row[0] != relation.Value(wantSrc) || row[1] != relation.Value(wantDst) {
			t.Fatalf("row %d is %v, want (%d, %d, _)", i, row, wantSrc, wantDst)
		}
	}
}

// TestDenseCostConcurrentFirstUse is for -race: the boxed node ids are
// built on a snapshot's first CostFromCtx or ReachFromCtx, whichever
// comes first, and a site's first legs — cost and connectivity — can
// arrive together.
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
				assertSamePairs(t, "concurrent first use", got, want)
				return
			}
			assertSameCosts(t, "concurrent first use", got, want)
		}()
	}
	wg.Wait()
}

// TestDenseCostAllocs: a row costs its boxed cost and nothing else —
// the node columns are the kernel's shared boxes and the tuples windows
// of one backing array — so a call allocates its rows plus a fixed
// number of scratch and result slices.
func TestDenseCostAllocs(t *testing.T) {
	d := gridFragment(t, 16, 32)
	sources := []graph.NodeID{1000, 900, 800, 700, 600}
	rows := len(sources) * d.Nodes()
	if allocs := testing.AllocsPerRun(10, func() {
		if got, _, err := d.CostFromCtx(context.Background(), sources); err != nil || got.Len() != rows {
			t.Fatalf("%v rows, err %v; want %d", got.Len(), err, rows)
		}
	}); allocs > float64(rows+64) {
		t.Errorf("CostFromCtx: %.0f allocations for %d rows, want at most rows+64", allocs, rows)
	}
}
