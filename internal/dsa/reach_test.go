package dsa

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fragment"
	"repro/internal/graph"
)

// reachStore rebuilds the 3-fragment chain store precomputed for
// reachability.
func reachStore(t *testing.T) (*Store, *graph.Graph) {
	t.Helper()
	st, g := pathStore(t)
	rs, err := Build(st.Fragmentation(), Options{Problem: ProblemReachability})
	if err != nil {
		t.Fatal(err)
	}
	return rs, g
}

func TestReachabilityStoreConnected(t *testing.T) {
	rs, _ := reachStore(t)
	if rs.Problem() != ProblemReachability {
		t.Fatalf("problem = %v", rs.Problem())
	}
	ok, err := reachable(rs, 0, 8, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("0 should reach 8")
	}
}

// TestReachabilityStoreRefusesRouteQueries: the entry points that
// promise a cost refuse a reachability store (QueryPath here, the
// pipelined walk in pipeline_test.go); the mode-agnostic executor does
// not — tcq.Plan refuses cost requests before they reach it.
func TestReachabilityStoreRefusesRouteQueries(t *testing.T) {
	rs, _ := reachStore(t)
	if _, _, err := rs.QueryPath(context.Background(), 0, 8); !errors.Is(err, ErrProblemMismatch) {
		t.Errorf("route query on reachability store: got %v, want ErrProblemMismatch", err)
	}
}

func TestReachabilityPreprocessingIsBFS(t *testing.T) {
	// Same fragmentation, both problems: the reachability store must
	// store at least as many facts (every connected pair, not only
	// finite-cost ones — same set here) while never storing cost
	// information the problem does not need. The observable contract:
	// search counts match, and Connected agrees between the stores.
	st, g := pathStore(t)
	rs, err := Build(st.Fragmentation(), Options{Problem: ProblemReachability})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Preprocessing().DijkstraRuns != st.Preprocessing().DijkstraRuns {
		t.Errorf("search counts differ: %d vs %d",
			rs.Preprocessing().DijkstraRuns, st.Preprocessing().DijkstraRuns)
	}
	nodes := g.Nodes()
	for _, src := range nodes[:3] {
		for _, dst := range nodes[len(nodes)-3:] {
			a, err := reachable(st, src, dst, EngineDijkstra, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := reachable(rs, src, dst, EngineDijkstra, false)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("Connected(%d,%d): shortest-path store %v, reachability store %v", src, dst, a, b)
			}
		}
	}
}

func TestBuildRejectsUnknownProblem(t *testing.T) {
	st, _ := pathStore(t)
	if _, err := Build(st.Fragmentation(), Options{Problem: Problem(7)}); err == nil {
		t.Error("unknown problem accepted")
	}
}

func TestReachabilityDirectedAsymmetry(t *testing.T) {
	// One-way chain: forward reachable, backward not — through the
	// reachability complementary information.
	g := graph.New()
	e1 := graph.Edge{From: 0, To: 1, Weight: 1}
	e2 := graph.Edge{From: 1, To: 2, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1}, {e2}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Build(fr, Options{Problem: ProblemReachability})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := reachable(rs, 0, 2, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	back, err := reachable(rs, 2, 0, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if !fwd || back {
		t.Errorf("fwd = %v, back = %v; want true, false", fwd, back)
	}
}
