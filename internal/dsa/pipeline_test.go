package dsa

import (
	"context"
	"math"
	"testing"
)

func TestQueryPipelinedChain(t *testing.T) {
	st, _ := pathStore(t)
	res, err := st.QueryPipelinedEngineCtx(context.Background(), 0, 8, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || res.Cost != 8 {
		t.Fatalf("res = %+v", res)
	}
	// Pipelining runs exactly one search per leg: 3 sites, 1 leg each.
	for id, w := range res.PerSite {
		if w.Legs != 1 {
			t.Errorf("site %d ran %d legs, want 1", id, w.Legs)
		}
	}
}

func TestQueryPipelinedSelfAndUnreachable(t *testing.T) {
	st, _ := pathStore(t)
	self, err := st.QueryPipelinedEngineCtx(context.Background(), 4, 4, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if !self.Reachable || self.Cost != 0 {
		t.Errorf("self = %+v", self)
	}
	// Directed one-way chain store: reverse query unreachable.
	rs, _ := reachStore(t)
	if _, err := rs.QueryPipelinedEngineCtx(context.Background(), 0, 8, EngineDijkstra); err == nil {
		t.Error("reachability store accepted a pipelined cost query")
	}
}

func TestQueryPipelinedDoesLessWorkOnWideDS(t *testing.T) {
	// On a store whose middle disconnection sets hold several nodes,
	// the pipelined evaluation settles fewer tuples than per-entry leg
	// execution.
	st, g, err := buildLinearStore(5, 3, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	src := st.Fragmentation().Fragment(0).Nodes()[0]
	last := st.Fragmentation().Fragment(st.Fragmentation().NumFragments() - 1)
	dst := last.Nodes()[len(last.Nodes())-1]
	_ = nodes
	pip, err := st.QueryPipelinedEngineCtx(context.Background(), src, dst, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runPair(st, src, dst, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if !pip.Reachable || !par.Reachable {
		t.Skip("pair unreachable")
	}
	work := func(r *Result) int {
		total := 0
		for _, w := range r.PerSite {
			total += w.Stats.DerivedTuples
		}
		return total
	}
	if work(pip) > work(par) {
		t.Errorf("pipelined settled %d tuples, per-entry %d; pipelining should not do more", work(pip), work(par))
	}
	if math.Abs(pip.Cost-par.Cost) > 1e-9 {
		t.Errorf("answers differ: %v vs %v", pip.Cost, par.Cost)
	}
}
