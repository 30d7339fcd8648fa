package dsa

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/fragment"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestEngineNames(t *testing.T) {
	for _, e := range []Engine{EngineDijkstra, EngineSemiNaive, EngineBitset, EngineDense} {
		got, err := ParseEngine(e.String())
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", e.String(), err)
		}
		if got != e {
			t.Errorf("ParseEngine(%q) = %v, want %v", e.String(), got, e)
		}
	}
	if _, err := ParseEngine("warshall"); err == nil {
		t.Error("unknown engine name accepted")
	}
	if Engine(9).String() == "" {
		t.Error("unknown engine has empty name")
	}
}

// TestBitsetEngineAnswersConnectivity: the bitset engine carries
// presence markers, not costs — the executor runs it for connectivity
// on a shortest-path store (refusing it for cost requests is
// tcq.Plan's rule, pinned in pkg/tcq).
func TestBitsetEngineAnswersConnectivity(t *testing.T) {
	st, _ := pathStore(t)
	ok, err := reachable(st, 0, 8, EngineBitset, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("reachable(0, 8) = false on the 0-…-8 path store")
	}
}

// TestDenseEngineAnswersCostQueries: the dense engine is cost-capable —
// sequential and parallel runs agree with the Dijkstra engine on
// both the multi-fragment chain and the same-fragment fast path.
func TestDenseEngineAnswersCostQueries(t *testing.T) {
	st, _ := pathStore(t)
	for _, q := range [][2]graph.NodeID{{0, 8}, {1, 2}, {8, 0}, {3, 6}} {
		want, err := runPair(st, q[0], q[1], EngineDijkstra, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runPair(st, q[0], q[1], EngineDense, false)
		if err != nil {
			t.Fatal(err)
		}
		if got.Reachable != want.Reachable || math.Abs(got.Cost-want.Cost) > 1e-9 {
			t.Errorf("query %v: dense (%v, %v), dijkstra (%v, %v)",
				q, got.Reachable, got.Cost, want.Reachable, want.Cost)
		}
		gotP, err := runPair(st, q[0], q[1], EngineDense, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotP.Cost-want.Cost) > 1e-9 {
			t.Errorf("parallel query %v: dense cost %v, want %v", q, gotP.Cost, want.Cost)
		}
	}
}

// TestEnginesAgreeOnDuplicateEntry: a leg's entry set can come off the
// wire unvalidated, so it may repeat a node or name one the site does
// not have. Every engine counts a repeated entry node once and ignores
// an absent one: the table of {a, a, absent} has exactly the facts of
// the table of {a}, and a leg with either entry set ships as many
// facts.
func TestEnginesAgreeOnDuplicateEntry(t *testing.T) {
	st := ringStore(t)
	site := st.Site(0)
	a := site.Augmented().Nodes()[0]
	exits := site.Augmented().Nodes()
	ctx := context.Background()
	for _, engine := range Engines() {
		var facts, shipped []int
		for _, entry := range [][]graph.NodeID{{a}, {a, a, 99}} {
			table, _, err := st.ExecuteLegFullCtx(ctx, site.ID, entry, engine)
			if err != nil {
				t.Fatal(err)
			}
			lr, err := st.ExecuteLegCtx(ctx, Leg{SiteID: site.ID, Entry: entry, Exit: exits}, engine)
			if err != nil {
				t.Fatal(err)
			}
			facts = append(facts, table.Len())
			shipped = append(shipped, lr.Stats.ResultTuples)
		}
		if facts[0] == 0 || facts[0] != facts[1] || shipped[0] != shipped[1] {
			t.Errorf("%v: entry {%d} gives %d facts (%d shipped), {%d, %d, 99} gives %d (%d shipped)",
				engine, a, facts[0], shipped[0], a, a, facts[1], shipped[1])
		}
	}
}

// TestQueryPipelinedEngineRefusals: pipelined evaluation needs a
// vector-seeded engine; the relational and bitset engines are refused.
func TestQueryPipelinedEngineRefusals(t *testing.T) {
	st, _ := pathStore(t)
	for _, e := range []Engine{EngineSemiNaive, EngineBitset} {
		if _, err := st.QueryPipelinedEngineCtx(context.Background(), 0, 8, e); err == nil {
			t.Errorf("pipelined accepted non-vector-seeded engine %v", e)
		}
	}
	res, err := st.QueryPipelinedEngineCtx(context.Background(), 0, 8, EngineDense)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || res.Cost != 8 {
		t.Errorf("pipelined dense 0→8 = (%v, %v), want (true, 8)", res.Reachable, res.Cost)
	}
}

// cancelAfter is a context whose cancellation lands after its first n
// Err calls, deterministically: every later call reports it.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// kernelsBuilt counts the sites whose dense kernel has been built.
func kernelsBuilt(st *Store) (n int) {
	for _, s := range st.sites {
		if s.dense != nil {
			n++
		}
	}
	return n
}

// TestPipelinedDenseCanceledBetweenLegs: the pipelined dense walk
// observes ctx before each leg, so a cancellation that lands after one
// leg's kernel made its last check returns ErrCanceled before the next
// leg builds its kernel — not a leg later, after that kernel's own
// first check. Each walk runs on a fresh store, whose sites build their
// kernels on the walk's first leg there.
func TestPipelinedDenseCanceledBetweenLegs(t *testing.T) {
	// How often the first leg's kernel checks ctx, on a store of its own.
	probe, _ := pathStore(t)
	kernel, err := probe.sites[0].DenseKernel()
	if err != nil {
		t.Fatal(err)
	}
	count := &cancelAfter{context.Background(), math.MaxInt}
	if _, err := kernel.CostVectorCtx(count, map[graph.NodeID]float64{0: 0}); err != nil {
		t.Fatal(err)
	}
	legChecks := math.MaxInt - count.n
	for _, c := range []struct {
		checks, built int
	}{
		{0, 0},             // canceled before the walk: no leg starts
		{1 + legChecks, 1}, // canceled after the first leg: the second never starts
	} {
		st, _ := pathStore(t)
		res, err := st.QueryPipelinedEngineCtx(&cancelAfter{context.Background(), c.checks}, 0, 8, EngineDense)
		if res != nil || !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("cancellation after %d checks: %v, %v; want ErrCanceled", c.checks, res, err)
		}
		if got := kernelsBuilt(st); got != c.built {
			t.Errorf("cancellation after %d checks: %d kernels built, want %d", c.checks, got, c.built)
		}
	}
	// Landing after every check, the walk answers.
	st, _ := pathStore(t)
	if res, err := st.QueryPipelinedEngineCtx(&cancelAfter{context.Background(), math.MaxInt}, 0, 8, EngineDense); err != nil || res.Cost != 8 {
		t.Errorf("uncanceled walk: %v, %v; want cost 8", res, err)
	}
}

// TestDenseEngineNegativeWeightsErrorNotPanic: graph files may carry
// negative weights (graph.Read does not validate signs), and Dijkstra
// silently tolerates them — but the CSR kernels (dense, bitset)
// cannot. They must surface an error like the semi-naive engine, not
// panic: the serving layer runs legs on worker goroutines, where a
// panic kills the daemon.
func TestDenseEngineNegativeWeightsErrorNotPanic(t *testing.T) {
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode(graph.NodeID(i), graph.Coord{X: float64(i)})
	}
	e1 := graph.Edge{From: 0, To: 1, Weight: -2}
	e2 := graph.Edge{From: 1, To: 2, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1, e2}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Both CSR engines refuse with the typed sentinel: they share the
	// site's one snapshot, which cannot be built.
	for _, engine := range []Engine{EngineDense, EngineBitset} {
		if _, err := runPair(st, 0, 2, engine, false); !errors.Is(err, ErrNegativeWeight) {
			t.Errorf("%v query over negative weights: %v, want ErrNegativeWeight", engine, err)
		}
		if _, _, err := st.ExecuteLegFullCtx(context.Background(), 0, []graph.NodeID{0}, engine); !errors.Is(err, ErrNegativeWeight) {
			t.Errorf("ExecuteLegFullCtx %v over negative weights: %v, want ErrNegativeWeight", engine, err)
		}
	}
	if _, err := st.QueryPipelinedEngineCtx(context.Background(), 0, 2, EngineDense); err == nil {
		t.Error("pipelined dense query over negative weights returned no error")
	}
	// The semi-naive engine refuses the same input; dijkstra remains
	// callable (it silently assumes non-negative weights).
	if _, err := runPair(st, 0, 2, EngineSemiNaive, false); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("seminaive query over negative weights: %v, want ErrNegativeWeight", err)
	}
}

// TestCostTrafficBuildsNoRelation: the dense, Dijkstra, pipelined and
// bitset engines search the site's graph and its CSR, so after cost and
// connectivity queries that reach every site no site holds the boxed
// relational form; one semi-naive leg builds exactly its own site's.
func TestCostTrafficBuildsNoRelation(t *testing.T) {
	g, err := gen.Grid(gen.GridConfig{Width: 8, Height: 6, DiagonalProb: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(res.Fragmentation, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nodes := g.Nodes()
	src, dst := nodes[0], nodes[len(nodes)-1] // opposite corners: the chain crosses every fragment
	for _, engine := range []Engine{EngineDense, EngineDijkstra, EngineBitset} {
		r, err := runPair(st, src, dst, engine, true)
		if err != nil || !r.Reachable {
			t.Fatalf("%v query: %+v, %v", engine, r, err)
		}
		if len(r.PerSite) != len(st.Sites()) {
			t.Fatalf("%v query touched %d sites, want all %d", engine, len(r.PerSite), len(st.Sites()))
		}
		if !engine.VectorSeeded() {
			continue
		}
		if _, err := st.QueryPipelinedEngineCtx(ctx, src, dst, engine); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range st.Sites() {
		if s.localRel != nil {
			t.Errorf("site %d built its edge relation under dense, Dijkstra and bitset traffic", s.ID)
		}
	}
	if _, _, err := st.ExecuteLegFullCtx(ctx, 1, []graph.NodeID{st.Site(1).Augmented().Nodes()[0]}, EngineSemiNaive); err != nil {
		t.Fatal(err)
	}
	for _, s := range st.Sites() {
		if built := s.localRel != nil; built != (s.ID == 1) {
			t.Errorf("site %d: edge relation built = %v after one semi-naive leg on site 1", s.ID, built)
		}
	}
}
