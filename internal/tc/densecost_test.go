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

// seedRow is seed as a distance row over d's CSR: +Inf but at the
// seeds that are nodes of it.
func seedRow(d *DenseGraph, seed map[graph.NodeID]float64) []float64 {
	row := infs(d.Nodes())
	for id, c := range seed {
		if k, ok := d.csr.Row(id); ok {
			row[k] = c
		}
	}
	return row
}

// TestDenseCostVectorMatchesShortestPathsMulti: the row-seeded
// single-row propagation (the pipelined primitive) matches the
// graph's row-seeded Dijkstra, graph.CSR.SeededSearch, including seed
// nodes kept at their seed cost, ignored negative and non-finite
// seeds, and a last trial seeded with every node that has no out-edge
// (an isolated node among them on the isolated-node graph) — from
// which, as sources, the cost kernel derives no path.
func TestDenseCostVectorMatchesShortestPathsMulti(t *testing.T) {
	for name, g := range corpusGraphs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDenseGraph(g.CSR())
			if err != nil {
				t.Fatal(err)
			}
			nodes := g.Nodes()
			sinks := map[graph.NodeID]float64{}
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
				}
				// Ignored: a negative and a non-finite cost.
				seed[nodes[rng.Intn(len(nodes))]] = -1
				seed[nodes[rng.Intn(len(nodes))]] = math.NaN()
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
				want, _ := g.CSR().SeededSearch(seedRow(d, seed))
				got, err := d.CostVectorCtx(context.Background(), seedRow(d, seed))
				if err != nil {
					t.Fatal(err)
				}
				for k, c := range want {
					if got[k] != c && math.Abs(got[k]-c) > 1e-9 {
						t.Errorf("trial %d: dist(%d) = %v, want %v", trial, nodes[k], got[k], c)
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
	if d.Nodes() != 3 {
		t.Errorf("Nodes = %d, want 3", d.Nodes())
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
// universe with costs in [0, 7]. The search with no landmarks from the
// first source to each node the third and fourth bytes name is held to
// the kernel's cell (assertGoalCost), and so is the goal-directed
// search between them on the graph made symmetric, with the sources
// and those nodes as landmarks.
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
		if len(srcs) > 0 {
			var stop []graph.NodeID
			for _, b := range data[min(len(data), 2):min(len(data), 4)] {
				stop = append(stop, graph.NodeID(b%16))
			}
			for _, dst := range stop {
				assertGoalCost(t, d, srcs[0], dst, nil)
			}
			sym := denseFrom(t, symmetricEdges(edges))
			landmarks, _, err := sym.CostFromCtx(context.Background(), append(slices.Clone(srcs), stop...))
			if err != nil {
				t.Fatal(err)
			}
			for _, dst := range stop {
				assertGoalCost(t, sym, srcs[0], dst, landmarks)
			}
		}

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

// TestCostMatrixFacts: a hand-built matrix lists its facts in
// leg-table order — by destination, the sources of one destination in
// row order — skipping +Inf cells, Len counts them, and Col finds a
// node's column by binary search and reports a node that has none.
func TestCostMatrixFacts(t *testing.T) {
	type fact struct {
		src, dst graph.NodeID
		cost     float64
	}
	inf := math.Inf(1)
	m := &CostMatrix{
		Rows: []graph.NodeID{9, 1},
		Cols: []graph.NodeID{2, 4, 8},
		Cost: []float64{0.5, 1, inf, 3.5, inf, 7},
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
	if empty := (&CostMatrix{}); empty.Len() != 0 || empty.Relation().Len() != 0 {
		t.Errorf("no facts: %+v", empty)
	}
}

// TestDenseCostConcurrentFirstUse is for -race: a site's first legs —
// cost and connectivity, whole rows, searches with no landmarks and
// goal-directed searches — can arrive together, and the kernels share
// the snapshot's CSR and the pool of row scratch, and write only their
// own matrices and the scratch they take from the pool.
func TestDenseCostConcurrentFirstUse(t *testing.T) {
	d := gridFragment(t, 8, 8)
	sources := []graph.NodeID{1000, 950}
	want, _, err := gridFragment(t, 8, 8).CostFromCtx(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	landmarks, _, err := d.CostFromCtx(context.Background(), []graph.NodeID{1000, 937, 990})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch g % 4 {
			case 0:
				got, _, err := d.CostFromCtx(context.Background(), sources)
				if err != nil {
					t.Error(err)
					return
				}
				assertSameCosts(t, "concurrent first use", got.Relation(), want.Relation())
			case 1:
				got, _, err := d.ReachFromCtx(context.Background(), sources)
				if err != nil {
					t.Error(err)
					return
				}
				assertSamePairs(t, "concurrent first use", got.Relation(), want.Relation())
			case 3:
				dst := 960 - graph.NodeID(g)
				got, _, err := d.CostBetweenCtx(context.Background(), sources[0], dst, landmarks)
				if c, _ := want.Col(dst); err != nil || got != want.Cost[c] {
					t.Errorf("concurrent goal search to %d: %v, err %v; want %v", dst, got, err, want.Cost[c])
				}
			default:
				dst := 960 - graph.NodeID(g)
				got, _, err := d.CostBetweenCtx(context.Background(), sources[0], dst, nil)
				if c, _ := want.Col(dst); err != nil || got != want.Cost[c] {
					t.Errorf("concurrent search to %d with no landmarks: %v, err %v; want %v", dst, got, err, want.Cost[c])
				}
			}
		}()
	}
	wg.Wait()
}

// TestDenseCostAllocs: nothing is allocated per fact or per call's
// scratch — a call allocates its matrix and a fixed number of small
// values, and its row scratch comes from the kernel's pool: the
// bucketed search, which allocates nothing at all, and the
// level-synchronous rows alike. A -race build drops
// pooled scratch at random, so there a call may allocate its scratch
// afresh: it holds CostFromCtx to the bound of a call with no pool,
// and the pooled counts are checked without -race.
func TestDenseCostAllocs(t *testing.T) {
	d := gridFragment(t, 16, 32)
	sources := []graph.NodeID{1000, 900, 800, 700, 600}
	rows := len(sources) * d.Nodes()
	fromBound := 8.0
	if raceDetector {
		fromBound = 24
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if got, _, err := d.CostFromCtx(context.Background(), sources); err != nil || got.Len() != rows {
			t.Fatalf("%v rows, err %v; want %d", got.Len(), err, rows)
		}
	}); allocs > fromBound {
		t.Errorf("CostFromCtx: %.0f allocations for %d facts, want at most %.0f", allocs, rows, fromBound)
	}
	if raceDetector {
		return
	}
	landmarks, _, err := d.CostFromCtx(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	for _, marks := range []*CostMatrix{nil, landmarks} {
		if allocs := testing.AllocsPerRun(10, func() {
			if got, _, err := d.CostBetweenCtx(context.Background(), 1000, 900, marks); err != nil || math.IsInf(got, 1) {
				t.Fatalf("search over landmarks %v: %v, err %v; want a cost", marks != nil, got, err)
			}
		}); allocs > 0 {
			t.Errorf("CostBetweenCtx over landmarks %v: %.0f allocations, want none", marks != nil, allocs)
		}
	}
	seed := make([]float64, d.Nodes())
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range seed {
			seed[i] = math.Inf(1)
		}
		seed[0] = 0
		if _, err := d.CostVectorCtx(context.Background(), seed); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("CostVectorCtx: %.0f allocations, want none", allocs)
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
	want, err := d.CostVectorCtx(count, seedRow(d, seed))
	if err != nil {
		t.Fatal(err)
	}
	checks := math.MaxInt - count.n
	if checks < 3 {
		t.Fatalf("%d ctx checks: want a propagation of several rounds", checks)
	}
	for n := 0; n <= checks; n++ {
		got, err := d.CostVectorCtx(&lateCancel{context.Background(), n}, seedRow(d, seed))
		canceled := errors.Is(err, ErrCanceled) && errors.Is(err, context.Canceled)
		if wantCanceled := n < checks; canceled != wantCanceled || (got == nil) != wantCanceled {
			t.Errorf("cancellation at check %d of %d: %d costs, err %v; want canceled = %v", n, checks, len(got), err, wantCanceled)
		} else if !canceled && !slices.Equal(got, want) {
			t.Errorf("cancellation after the last check: %v, want %v", got, want)
		}
	}
}

// TestPropertyStopSearchMatchesCostFrom: with no landmarks the
// bucketed search runs on any graph, directed ones included. On random
// graphs with zero weights and zero-weight cycles, self-loops, parallel
// edges, +Inf weights and positive weights spanning 1e-9 to 1e9 — so Δ
// is capped and light edges share their bucket — or subnormal ones,
// whose 1/Δ overflows, its cost is CostFromCtx's cell bit for bit,
// whatever the target: reached or not, absent from the snapshot, or
// the source itself; so is its cost from an absent source.
func TestPropertyStopSearchMatchesCostFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	weights := []func() float64{
		func() float64 { return 0 },
		func() float64 { return math.Inf(1) },
		func() float64 { return float64(1 + rng.Intn(9)) },
		func() float64 { return math.Pow(10, -9+18*rng.Float64()) },
		func() float64 { return rng.Float64() },
		func() float64 { return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(4)) },
	}
	for trial := range 300 {
		n, m := 2+rng.Intn(40), rng.Intn(160)
		kinds := rng.Perm(len(weights))[:1+rng.Intn(len(weights))]
		var edges []graph.Edge
		for range m {
			edges = append(edges, graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n)), Weight: weights[kinds[rng.Intn(len(kinds))]]()})
		}
		if trial%5 == 0 { // a zero-weight cycle
			for k := range 3 {
				edges = append(edges, graph.Edge{From: graph.NodeID(k), To: graph.NodeID((k + 1) % 3), Weight: 0})
			}
		}
		if len(edges) == 0 {
			continue
		}
		d := denseFrom(t, edges)
		for range 4 {
			src := graph.NodeID(rng.Intn(n + 1)) // n: absent
			for range 1 + rng.Intn(3) {
				assertGoalCost(t, d, src, graph.NodeID(rng.Intn(n+3)), nil) // n+1, n+2: absent
			}
			if rng.Intn(8) == 0 {
				assertGoalCost(t, d, src, src, nil)
			}
		}
	}
}

// TestStopSearchStopsEarly: on a long path the search with no
// landmarks from one end to a node near it drains few buckets and
// queues few nodes, while one to an unreachable node or to the far end
// queues every node the source reaches, once; a source absent from the
// snapshot costs +Inf and searches nothing.
func TestStopSearchStopsEarly(t *testing.T) {
	var edges []graph.Edge
	for k := range 99 {
		edges = append(edges, graph.Edge{From: graph.NodeID(k), To: graph.NodeID(k + 1), Weight: 1})
	}
	edges = append(edges, graph.Edge{From: 200, To: 201, Weight: 1}) // unreachable from 0
	d := denseFrom(t, edges)
	ctx := context.Background()
	near, st, err := d.CostBetweenCtx(ctx, 0, 3, nil)
	if err != nil || near != 3 || st.Iterations > 5 || st.DerivedTuples > 5 {
		t.Errorf("0 -> 3: %v after %d buckets, %d queued, err %v; want 3 after at most 5 buckets and 5 nodes", near, st.Iterations, st.DerivedTuples, err)
	}
	for _, dst := range []graph.NodeID{201, 99} {
		if _, st, err := d.CostBetweenCtx(ctx, 0, dst, nil); err != nil || st.DerivedTuples != 99 || st.ResultTuples != 99 {
			t.Errorf("0 -> %d: %d queued, %d reached, err %v; want all 99 nodes from 0, once", dst, st.DerivedTuples, st.ResultTuples, err)
		}
	}
	if got, st, err := d.CostBetweenCtx(ctx, 500, 3, nil); err != nil || !math.IsInf(got, 1) || st != (Stats{}) {
		t.Errorf("absent source: %v, %+v, %v; want +Inf and no search", got, st, err)
	}
	assertGoalCost(t, d, 0, 3, nil)
}

// TestStopSearchCanceledBetweenBuckets: the search with no landmarks
// observes ctx before each bucket, so a cancellation that lands at any
// check surfaces as ErrCanceled with no cost, and the pooled scratch it
// left mid-search does not leak into the next search.
func TestStopSearchCanceledBetweenBuckets(t *testing.T) {
	d := gridFragment(t, 8, 8)
	want, _, err := d.CostBetweenCtx(context.Background(), 1000, 937, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := &lateCancel{context.Background(), math.MaxInt}
	if _, _, err := d.CostBetweenCtx(count, 1000, 937, nil); err != nil {
		t.Fatal(err)
	}
	checks := math.MaxInt - count.n
	if checks < 3 {
		t.Fatalf("%d ctx checks: want a search of several buckets", checks)
	}
	for n := 0; n < checks; n++ {
		got, _, err := d.CostBetweenCtx(&lateCancel{context.Background(), n}, 1000, 937, nil)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) || !math.IsInf(got, 1) {
			t.Errorf("cancellation at check %d of %d: %v, err %v; want ErrCanceled", n, checks, got, err)
		}
		if again, _, err := d.CostBetweenCtx(context.Background(), 1000, 937, nil); err != nil || again != want {
			t.Fatalf("after a cancellation at check %d: %v, err %v; want %v", n, again, err, want)
		}
	}
	assertGoalCost(t, d, 1000, 937, nil)
}

// symmetricEdges returns edges with the reverse of each at its weight,
// a graph CostBetweenCtx's bound holds on.
func symmetricEdges(edges []graph.Edge) []graph.Edge {
	out := slices.Clone(edges)
	for _, e := range edges {
		out = append(out, graph.Edge{From: e.To, To: e.From, Weight: e.Weight})
	}
	return out
}

// assertGoalCost runs the goal-directed search from src to dst over
// landmarks and holds it to CostFromCtx's cell bit for bit.
func assertGoalCost(t *testing.T, d *DenseGraph, src, dst graph.NodeID, landmarks *CostMatrix) {
	t.Helper()
	want := math.Inf(1)
	row, _, err := d.CostFromCtx(context.Background(), []graph.NodeID{src})
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := row.Col(dst); ok && len(row.Rows) > 0 {
		want = row.Cost[c]
	}
	got, _, err := d.CostBetweenCtx(context.Background(), src, dst, landmarks)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		var rows []graph.NodeID
		if landmarks != nil {
			rows = landmarks.Rows
		}
		t.Fatalf("%d→%d over landmarks %v: %v, CostFromCtx's cell %v", src, dst, rows, got, want)
	}
}

// TestPropertyGoalSearchMatchesCostFrom: on the graphs of
// TestPropertyStopSearchMatchesCostFrom made symmetric — zero weights
// and zero-weight cycles, self-loops, parallel edges, +Inf weights,
// positive weights spanning 1e-9 to 1e9 and subnormal ones — the
// goal-directed search's cost is CostFromCtx's cell bit for bit over
// any landmark set: none, one, more than it reads, landmarks that do
// not reach the target, the source and the target themselves; also
// from and to nodes outside the snapshot. A cancellation at any of its
// ctx checks returns ErrCanceled, and the next search on the pooled
// scratch is exact.
func TestPropertyGoalSearchMatchesCostFrom(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(53))
	weights := []func() float64{
		func() float64 { return 0 },
		func() float64 { return math.Inf(1) },
		func() float64 { return float64(1 + rng.Intn(9)) },
		func() float64 { return math.Pow(10, -9+18*rng.Float64()) },
		func() float64 { return rng.Float64() },
		func() float64 { return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(4)) },
	}
	canceled := 0
	for trial := range 300 {
		n, m := 2+rng.Intn(40), rng.Intn(120)
		kinds := rng.Perm(len(weights))[:1+rng.Intn(len(weights))]
		var edges []graph.Edge
		for range m {
			edges = append(edges, graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n)), Weight: weights[kinds[rng.Intn(len(kinds))]]()})
		}
		if trial%5 == 0 { // a zero-weight cycle
			for k := range 3 {
				edges = append(edges, graph.Edge{From: graph.NodeID(k), To: graph.NodeID((k + 1) % 3), Weight: 0})
			}
		}
		if len(edges) == 0 {
			continue
		}
		d := denseFrom(t, symmetricEdges(edges))
		for range 6 {
			src, dst := graph.NodeID(rng.Intn(n+2)), graph.NodeID(rng.Intn(n+2)) // n, n+1: absent
			var marks []graph.NodeID
			for range rng.Intn(2 * goalLandmarks) {
				marks = append(marks, graph.NodeID(rng.Intn(n)))
			}
			switch rng.Intn(4) {
			case 0:
				marks = append(marks, src)
			case 1:
				marks = append(marks, dst)
			}
			landmarks, _, err := d.CostFromCtx(ctx, marks)
			if err != nil {
				t.Fatal(err)
			}
			assertGoalCost(t, d, src, dst, landmarks)
			if rng.Intn(4) == 0 {
				assertGoalCost(t, d, src, dst, nil)
			}
			if rng.Intn(8) != 0 {
				continue
			}
			count := &lateCancel{ctx, math.MaxInt}
			if _, _, err := d.CostBetweenCtx(count, src, dst, landmarks); err != nil {
				t.Fatal(err)
			}
			for k := range math.MaxInt - count.n {
				got, _, err := d.CostBetweenCtx(&lateCancel{ctx, k}, src, dst, landmarks)
				if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) || !math.IsInf(got, 1) {
					t.Fatalf("%d→%d: cancellation at check %d: %v, err %v; want ErrCanceled", src, dst, k, got, err)
				}
				canceled++
				assertGoalCost(t, d, src, dst, landmarks)
			}
		}
	}
	if canceled == 0 {
		t.Fatal("no search was canceled")
	}
}

// TestGoalSearchStopsEarly: on a lattice, a goal-directed search from
// one corner to a node near the middle queues fewer nodes than the
// search with no landmarks, which settles every node cheaper than the
// target, and with landmarks at the lattice's corners it is exact.
func TestGoalSearchStopsEarly(t *testing.T) {
	d := gridFragment(t, 16, 16)
	ctx := context.Background()
	id := func(r, c int) graph.NodeID { return graph.NodeID(1000 - (r*16 + c)) }
	landmarks, _, err := d.CostFromCtx(ctx, []graph.NodeID{id(0, 0), id(0, 15), id(15, 0), id(15, 15), id(8, 0)})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := id(4, 4), id(8, 10)
	_, stop, err := d.CostBetweenCtx(ctx, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, goal, err := d.CostBetweenCtx(ctx, src, dst, landmarks)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d→%d: goal search queued %d nodes, with no landmarks %d", src, dst, goal.DerivedTuples, stop.DerivedTuples)
	if 2*goal.DerivedTuples > stop.DerivedTuples {
		t.Errorf("%d→%d: the goal search queued %d nodes, with no landmarks %d; want at most half", src, dst, goal.DerivedTuples, stop.DerivedTuples)
	}
	assertGoalCost(t, d, src, dst, landmarks)
}

// TestGoalSearchSlackCoversRounding holds the goal-directed search to
// the premise its slack is derived from: landmark cells anywhere within
// n·ε of their exact distances (n the nodes, ε = 2⁻⁵³), as rounded sums
// of fewer than n terms are. A landmark 20 edges of weight 1024 away
// from a source s makes those cells large, so a bound read off them
// carries an error far above the spacing of the costs near s. From s
// the target t costs D = 3 + g through v (weights 1.5 and 1.5 + g) and
// D + 2⁻⁴⁰ by its own edge; with Δ = 1 (a weight-1 edge to a dead end)
// a D close to the bucket boundary 3 separates the two paths by a
// bucket boundary whenever π(v) or π(s) is off by more than the slack.
// For g sweeping ±2⁻³⁰ around the boundary and the landmark's cells of
// s, v and t each moved down, kept or moved up by the premise's bound,
// the search must still find D bit for bit.
func TestGoalSearchSlackCoversRounding(t *testing.T) {
	ctx := context.Background()
	const b, s, v, tt, w = 0, 20, 21, 22, 23
	for i := -1024; i <= 1024; i++ {
		g := float64(i) * 0x1p-40
		var edges []graph.Edge
		for k := graph.NodeID(b); k < s; k++ {
			edges = append(edges, graph.Edge{From: k, To: k + 1, Weight: 1024})
		}
		edges = append(edges,
			graph.Edge{From: s, To: v, Weight: 1.5}, graph.Edge{From: v, To: tt, Weight: 1.5 + g},
			graph.Edge{From: s, To: tt, Weight: 3 + g + 0x1p-40}, graph.Edge{From: s, To: w, Weight: 1})
		d := denseFrom(t, symmetricEdges(edges))
		want, _, err := d.CostFromCtx(ctx, []graph.NodeID{s})
		if err != nil {
			t.Fatal(err)
		}
		if c, _ := want.Col(tt); want.Cost[c] != 3+g {
			t.Fatalf("g = %v: s→t costs %v, want %v", g, want.Cost[c], 3+g)
		}
		exact, _, err := d.CostFromCtx(ctx, []graph.NodeID{b})
		if err != nil {
			t.Fatal(err)
		}
		bound := 0.99 * float64(d.Nodes()) * 0x1p-53
		for pattern := range 27 {
			landmarks := &CostMatrix{Rows: exact.Rows, Cols: exact.Cols, Cost: slices.Clone(exact.Cost)}
			shift := pattern
			for _, id := range []graph.NodeID{s, v, tt} {
				c, _ := landmarks.Col(id)
				landmarks.Cost[c] *= 1 + float64(shift%3-1)*bound
				shift /= 3
			}
			got, _, err := d.CostBetweenCtx(ctx, s, tt, landmarks)
			if c, _ := want.Col(tt); err != nil || math.Float64bits(got) != math.Float64bits(want.Cost[c]) {
				t.Fatalf("g = %v, landmark cells moved by pattern %d: %v, err %v; want %v", g, pattern, got, err, want.Cost[c])
			}
		}
	}
}
