package tc

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/relation"
)

// rel builds an edge relation from (src, dst, cost) triples.
func rel(edges ...[3]float64) *relation.Relation {
	r := relation.New("src", "dst", "cost")
	for _, e := range edges {
		r.MustInsert(relation.Tuple{int64(e[0]), int64(e[1]), e[2]})
	}
	return r
}

// pairSet extracts {src->dst} keys from a closure relation.
func pairSet(r *relation.Relation) map[[2]int64]bool {
	set := make(map[[2]int64]bool, r.Len())
	for _, t := range r.Tuples() {
		set[[2]int64{t[0].(int64), t[1].(int64)}] = true
	}
	return set
}

var closureAlgorithms = []struct {
	name string
	fn   func(*relation.Relation) (*relation.Relation, Stats, error)
}{
	{"naive", NaiveClosure},
	{"seminaive", SemiNaiveClosure},
	{"smart", SmartClosure},
	{"warshall", WarshallClosure},
}

func TestClosureLine(t *testing.T) {
	// 1 -> 2 -> 3 -> 4: closure has 3+2+1 = 6 pairs.
	r := rel([3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{3, 4, 1})
	for _, alg := range closureAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, st, err := alg.fn(r)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != 6 {
				t.Errorf("closure size = %d, want 6", got.Len())
			}
			if !pairSet(got)[[2]int64{1, 4}] {
				t.Error("missing pair 1->4")
			}
			if st.ResultTuples != 6 {
				t.Errorf("stats.ResultTuples = %d, want 6", st.ResultTuples)
			}
		})
	}
}

func TestClosureCycle(t *testing.T) {
	// 1 -> 2 -> 3 -> 1: every ordered pair (including self) is reachable.
	r := rel([3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{3, 1, 1})
	for _, alg := range closureAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, _, err := alg.fn(r)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != 9 {
				t.Errorf("cycle closure size = %d, want 9", got.Len())
			}
			if !pairSet(got)[[2]int64{1, 1}] {
				t.Error("cycle should derive 1->1")
			}
		})
	}
}

func TestClosureEmptyAndErrors(t *testing.T) {
	for _, alg := range closureAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, _, err := alg.fn(relation.New("src", "dst", "cost"))
			if err != nil {
				t.Fatalf("empty relation: %v", err)
			}
			if got.Len() != 0 {
				t.Errorf("empty closure size = %d", got.Len())
			}
			if _, _, err := alg.fn(relation.New("a", "b")); err == nil {
				t.Error("arity-2 relation accepted")
			}
		})
	}
}

func TestWarshallRejectsNonIntNodes(t *testing.T) {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{"a", "b", 1.0})
	if _, _, err := WarshallClosure(r); err == nil {
		t.Error("string nodes accepted by Warshall")
	}
}

func TestSemiNaiveIterationsTrackDiameter(t *testing.T) {
	// The paper (§2.1): iterations to fixpoint = max diameter. A line of
	// n nodes has diameter n-1; semi-naive needs n-1 productive rounds
	// plus the final empty one is not counted.
	for _, n := range []int{2, 5, 9} {
		g := graph.New()
		for i := 0; i+1 < n; i++ {
			g.AddEdge(graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1})
		}
		_, st, err := SemiNaiveClosure(relation.FromGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		if st.Iterations != n-1 {
			t.Errorf("line(%d): iterations = %d, want %d", n, st.Iterations, n-1)
		}
	}
}

func TestSmartIsLogarithmic(t *testing.T) {
	// Squaring should close a 16-node line in ~log2(15)+1 rounds, far
	// fewer than semi-naive's 15.
	g := graph.New()
	for i := 0; i < 15; i++ {
		g.AddEdge(graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1})
	}
	r := relation.FromGraph(g)
	_, smart, err := SmartClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	_, semi, err := SemiNaiveClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	if smart.Iterations >= semi.Iterations {
		t.Errorf("smart iterations = %d, semi-naive = %d; smart should be fewer", smart.Iterations, semi.Iterations)
	}
	if smart.Iterations > 6 {
		t.Errorf("smart iterations = %d, want ≤ 6 for diameter 15", smart.Iterations)
	}
}

func TestReachableFrom(t *testing.T) {
	r := rel([3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{10, 11, 1})
	got, _, err := ReachableFrom(r, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	set := pairSet(got)
	if len(set) != 2 || !set[[2]int64{1, 2}] || !set[[2]int64{1, 3}] {
		t.Errorf("ReachableFrom(1) = %v", set)
	}
}

// TestSeedEdges pins the pushed selection every source-restricted
// fixpoint starts from: exactly the edges whose src is one of the
// sources, in relation order, each once however often its source is
// listed; an absent source selects nothing; and a string-valued
// relation seeds nothing, because a node ID is an int64 and never equals
// a value of another type — which is what sends the non-int64 fallbacks
// of ReachableFrom, ShortestFromCtx, BitsetReachableFromCtx and
// DenseCostFrom to an empty fixpoint rather than an error.
func TestSeedEdges(t *testing.T) {
	ints := rel([3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{1, 3, 5}, [3]float64{3, 1, 1})
	strs := relation.New("src", "dst", "cost")
	strs.MustInsert(relation.Tuple{"1", "2", 1.0})
	strs.MustInsert(relation.Tuple{"2", "3", 1.0})
	for _, tc := range []struct {
		name    string
		edges   *relation.Relation
		sources []graph.NodeID
		want    []relation.Tuple
	}{
		{"one source", ints, []graph.NodeID{1}, []relation.Tuple{{int64(1), int64(2), 1.0}, {int64(1), int64(3), 5.0}}},
		{"relation order, not source order", ints, []graph.NodeID{3, 2}, []relation.Tuple{{int64(2), int64(3), 1.0}, {int64(3), int64(1), 1.0}}},
		{"duplicate sources select once", ints, []graph.NodeID{2, 2, 2}, []relation.Tuple{{int64(2), int64(3), 1.0}}},
		{"absent source", ints, []graph.NodeID{99}, nil},
		{"absent beside present", ints, []graph.NodeID{99, 3}, []relation.Tuple{{int64(3), int64(1), 1.0}}},
		{"no sources", ints, nil, nil},
		{"string nodes never match", strs, []graph.NodeID{1, 2}, nil},
	} {
		got := seedEdges(tc.edges, tc.sources)
		if !got.Schema().Equal(tc.edges.Schema()) {
			t.Errorf("%s: schema %v, want %v", tc.name, got.Schema(), tc.edges.Schema())
		}
		if !reflect.DeepEqual(got.Tuples(), tc.want) {
			t.Errorf("%s: seed = %v, want %v", tc.name, got.Tuples(), tc.want)
		}
	}

	// The four callers on a string-valued relation: no seed, so an
	// empty result from the relational fallback, never an error.
	ctx := context.Background()
	for name, fn := range map[string]func() (*relation.Relation, Stats, error){
		"ReachableFrom":          func() (*relation.Relation, Stats, error) { return ReachableFrom(strs, []graph.NodeID{1}) },
		"ShortestFromCtx":        func() (*relation.Relation, Stats, error) { return ShortestFromCtx(ctx, strs, []graph.NodeID{1}) },
		"BitsetReachableFromCtx": func() (*relation.Relation, Stats, error) { return BitsetReachableFromCtx(ctx, strs, []graph.NodeID{1}) },
		"DenseCostFrom":          func() (*relation.Relation, Stats, error) { return DenseCostFrom(strs, []graph.NodeID{1}) },
	} {
		got, _, err := fn()
		if err != nil {
			t.Errorf("%s on string nodes: %v", name, err)
		} else if got.Len() != 0 {
			t.Errorf("%s on string nodes derived %d tuples, want 0", name, got.Len())
		}
	}
}

func TestReachableFromEmptySources(t *testing.T) {
	r := rel([3]float64{1, 2, 1})
	got, st, err := ReachableFrom(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || st.Iterations != 0 {
		t.Errorf("empty sources: closure %d tuples, %d iterations", got.Len(), st.Iterations)
	}
}

func TestShortestClosureChoosesCheapPath(t *testing.T) {
	// 1->2->3 costs 2; direct 1->3 costs 5.
	r := rel([3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{1, 3, 5})
	got, _, err := ShortestClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	costs := indexCosts(got)
	if c := costs[relation.Tuple{int64(1), int64(3)}.Key()]; c != 2 {
		t.Errorf("cost(1,3) = %v, want 2", c)
	}
}

func TestShortestClosureCycleTerminates(t *testing.T) {
	r := rel([3]float64{1, 2, 1}, [3]float64{2, 1, 1}, [3]float64{2, 3, 4})
	got, st, err := ShortestClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	costs := indexCosts(got)
	if c := costs[relation.Tuple{int64(1), int64(1)}.Key()]; c != 2 {
		t.Errorf("cost(1,1) = %v, want 2 (round trip)", c)
	}
	if c := costs[relation.Tuple{int64(1), int64(3)}.Key()]; c != 5 {
		t.Errorf("cost(1,3) = %v, want 5", c)
	}
	if st.Iterations > 10 {
		t.Errorf("cycle fixpoint took %d iterations", st.Iterations)
	}
}

func TestShortestClosureRejectsNegative(t *testing.T) {
	r := rel([3]float64{1, 2, -1})
	if _, _, err := ShortestClosure(r); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestShortestClosureParallelEdges(t *testing.T) {
	r := rel([3]float64{1, 2, 7}, [3]float64{1, 2, 3})
	got, _, err := ShortestClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	costs := indexCosts(got)
	if c := costs[relation.Tuple{int64(1), int64(2)}.Key()]; c != 3 {
		t.Errorf("parallel edges: cost = %v, want 3", c)
	}
}

func TestShortestFrom(t *testing.T) {
	r := rel([3]float64{1, 2, 2}, [3]float64{2, 3, 2}, [3]float64{9, 1, 1})
	got, _, err := ShortestFromCtx(context.Background(), r, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range got.Tuples() {
		if tup[0].(int64) != 1 {
			t.Errorf("ShortestFrom leaked tuple with src %v", tup[0])
		}
	}
	costs := indexCosts(got)
	if c := costs[relation.Tuple{int64(1), int64(3)}.Key()]; c != 4 {
		t.Errorf("cost(1,3) = %v, want 4", c)
	}
}

func TestFloydWarshallSmall(t *testing.T) {
	g := graph.New()
	g.AddEdge(graph.Edge{From: 1, To: 2, Weight: 1})
	g.AddEdge(graph.Edge{From: 2, To: 3, Weight: 1})
	g.AddEdge(graph.Edge{From: 1, To: 3, Weight: 5})
	d := FloydWarshallCosts(g)
	if d[1][3] != 2 {
		t.Errorf("FW cost(1,3) = %v, want 2", d[1][3])
	}
	if d[1][1] != 0 {
		t.Errorf("FW cost(1,1) = %v, want 0", d[1][1])
	}
	if _, ok := d[3][1]; ok {
		t.Error("FW derived unreachable pair 3->1")
	}
}

func TestStatsAddMax(t *testing.T) {
	a := Stats{Iterations: 2, DerivedTuples: 10, ResultTuples: 5}
	b := Stats{Iterations: 3, DerivedTuples: 4, ResultTuples: 9}
	sum := a
	sum.Add(b)
	if sum.Iterations != 5 || sum.DerivedTuples != 14 || sum.ResultTuples != 14 {
		t.Errorf("Add = %+v", sum)
	}
	m := a
	m.Max(b)
	if m.Iterations != 3 || m.DerivedTuples != 10 || m.ResultTuples != 9 {
		t.Errorf("Max = %+v", m)
	}
}

// randomEdgeRelation builds a random directed graph's edge relation.
func randomEdgeRelation(rng *rand.Rand, n, m int) (*relation.Relation, *graph.Graph) {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), graph.Coord{})
	}
	for k := 0; k < m; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j && !g.HasEdge(graph.NodeID(i), graph.NodeID(j)) {
			g.AddEdge(graph.Edge{From: graph.NodeID(i), To: graph.NodeID(j), Weight: 1 + float64(rng.Intn(9))})
		}
	}
	return relation.FromGraph(g), g
}

// TestPropertyClosureAlgorithmsAgree: all four reachability algorithms
// must produce identical pair sets on random graphs.
func TestPropertyClosureAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		r, _ := randomEdgeRelation(rng, n, rng.Intn(3*n))
		ref, _, err := WarshallClosure(r)
		if err != nil {
			return false
		}
		want := pairSet(ref)
		for _, alg := range closureAlgorithms[:3] {
			got, _, err := alg.fn(r)
			if err != nil {
				return false
			}
			gs := pairSet(got)
			if len(gs) != len(want) {
				return false
			}
			for p := range gs {
				if !want[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyShortestClosureMatchesDijkstra: the relational min-cost
// fixpoint must agree with graph Dijkstra for every pair.
func TestPropertyShortestClosureMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		r, g := randomEdgeRelation(rng, n, rng.Intn(3*n))
		got, _, err := ShortestClosure(r)
		if err != nil {
			return false
		}
		costs := indexCosts(got)
		for _, u := range g.Nodes() {
			dist, _ := g.ShortestPaths(u)
			for v, d := range dist {
				if u == v {
					continue // closure derives paths of length ≥ 1 only
				}
				c, ok := costs[relation.Tuple{int64(u), int64(v)}.Key()]
				if !ok || math.Abs(c-d) > 1e-9 {
					return false
				}
			}
		}
		// No spurious pairs.
		for _, tup := range got.Tuples() {
			u := graph.NodeID(tup[0].(int64))
			v := graph.NodeID(tup[1].(int64))
			if d := g.Distance(u, v); math.IsInf(d, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyReachableFromIsClosureSlice: the source-restricted
// computation must equal the full closure filtered to those sources.
func TestPropertyReachableFromIsClosureSlice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		r, g := randomEdgeRelation(rng, n, rng.Intn(3*n))
		src := g.Nodes()[rng.Intn(g.NumNodes())]
		restricted, _, err := ReachableFrom(r, []graph.NodeID{src})
		if err != nil {
			return false
		}
		full, _, err := SemiNaiveClosure(r)
		if err != nil {
			return false
		}
		want := make(map[[2]int64]bool)
		for p := range pairSet(full) {
			if p[0] == int64(src) {
				want[p] = true
			}
		}
		got := pairSet(restricted)
		if len(got) != len(want) {
			return false
		}
		for p := range got {
			if !want[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCondensedClosureCycle(t *testing.T) {
	// 1 -> 2 -> 3 -> 1 plus tail 3 -> 4: cycle members reach everything
	// including themselves; 4 reaches nothing.
	r := rel([3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{3, 1, 1}, [3]float64{3, 4, 1})
	got, st, err := CondensedClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := SemiNaiveClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("condensed = %d tuples, semi-naive = %d", got.Len(), want.Len())
	}
	set := pairSet(got)
	if !set[[2]int64{1, 1}] || !set[[2]int64{1, 4}] {
		t.Errorf("missing expected pairs in %v", set)
	}
	if set[[2]int64{4, 4}] {
		t.Error("acyclic sink should not reach itself")
	}
	if st.ResultTuples != got.Len() {
		t.Errorf("stats.ResultTuples = %d", st.ResultTuples)
	}
}

func TestCondensedClosureSelfLoop(t *testing.T) {
	r := rel([3]float64{1, 1, 1}, [3]float64{1, 2, 1})
	got, _, err := CondensedClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	set := pairSet(got)
	if !set[[2]int64{1, 1}] {
		t.Error("self loop should derive 1->1")
	}
	if set[[2]int64{2, 2}] {
		t.Error("2 has no self loop")
	}
}

func TestCondensedClosureErrors(t *testing.T) {
	if _, _, err := CondensedClosure(relation.New("a", "b")); err == nil {
		t.Error("arity-2 relation accepted")
	}
	empty, _, err := CondensedClosure(relation.New("src", "dst", "cost"))
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty = %v, %v", empty, err)
	}
}

// TestPropertyCondensedMatchesSemiNaive: SCC condensation must produce
// exactly the semi-naive closure on random cyclic graphs.
func TestPropertyCondensedMatchesSemiNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		r, _ := randomEdgeRelation(rng, n, rng.Intn(4*n))
		a, _, err := CondensedClosure(r)
		if err != nil {
			return false
		}
		b, _, err := SemiNaiveClosure(r)
		if err != nil {
			return false
		}
		sa, sb := pairSet(a), pairSet(b)
		if len(sa) != len(sb) {
			return false
		}
		for p := range sa {
			if !sb[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCondensedClosureDoesLessWorkOnCycles(t *testing.T) {
	// A single big cycle: the condensation collapses it to one node, so
	// the DAG fixpoint does almost nothing, while semi-naive derives
	// O(n²) tuples over O(n) rounds.
	var edges [][3]float64
	const n = 12
	for i := 0; i < n; i++ {
		edges = append(edges, [3]float64{float64(i), float64((i + 1) % n), 1})
	}
	r := rel(edges...)
	_, condensed, err := CondensedClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	_, semi, err := SemiNaiveClosure(r)
	if err != nil {
		t.Fatal(err)
	}
	if condensed.DerivedTuples >= semi.DerivedTuples {
		t.Errorf("condensed derived %d tuples, semi-naive %d; condensation should win on a cycle",
			condensed.DerivedTuples, semi.DerivedTuples)
	}
}

func TestNormalizeEdgesErrors(t *testing.T) {
	bad := relation.New("src", "dst", "cost")
	bad.MustInsert(relation.Tuple{int64(1), int64(2), "expensive"})
	if _, _, err := ShortestClosure(bad); err == nil {
		t.Error("non-numeric cost accepted")
	}
	if _, _, err := ShortestFromCtx(context.Background(), relation.New("a", "b"), []graph.NodeID{1}); err == nil {
		t.Error("arity-2 relation accepted by ShortestFrom")
	}
	if _, _, err := ReachableFrom(relation.New("a", "b"), []graph.NodeID{1}); err == nil {
		t.Error("arity-2 relation accepted by ReachableFrom")
	}
}

func TestShortestFromUnknownSource(t *testing.T) {
	r := rel([3]float64{1, 2, 1})
	got, _, err := ShortestFromCtx(context.Background(), r, []graph.NodeID{99})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("unknown source derived %d tuples", got.Len())
	}
}

func TestClosurePreservesOriginalRelation(t *testing.T) {
	// Algorithms must not mutate their input.
	r := rel([3]float64{1, 2, 1}, [3]float64{2, 3, 1})
	before := r.Len()
	if _, _, err := SemiNaiveClosure(r); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ShortestClosure(r); err != nil {
		t.Fatal(err)
	}
	if r.Len() != before {
		t.Errorf("input relation mutated: %d tuples, had %d", r.Len(), before)
	}
}
