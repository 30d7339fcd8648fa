package server

import (
	"context"
	"math"
	"testing"

	"repro/internal/dsa"
	"repro/internal/fragment/center"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/pkg/tcq"
)

// newPaperServer deploys the paper's Table-2 scale — 4 transportation
// clusters of 150 nodes at degree 5.25, center fragmentation into 4 —
// whose sites are asymmetric, so a leg from a source off the border
// goes to the leg cache.
func newPaperServer(t *testing.T, cfg Config) (*Server, *dsa.Store) {
	t.Helper()
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.DefaultsWithDegree(150, 5.25, 1)})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := center.Fragment(g, center.Options{NumFragments: 4, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(fr, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(t, st, cfg), st
}

// crossPair returns two nodes off the border of two different
// fragments whose plan is reachable, and their plan.
func crossPair(t *testing.T, st *dsa.Store, skip graph.NodeID) (graph.NodeID, graph.NodeID, *dsa.Plan) {
	t.Helper()
	from, to := interior(st, 0), interior(st, st.Fragmentation().NumFragments()-1)
	for _, src := range from {
		if src == skip {
			continue
		}
		for _, dst := range to {
			plan, err := st.NewPlan(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.SitesInvolved()) > 1 {
				return src, dst, plan
			}
		}
	}
	t.Fatal("no cross-fragment pair between the first and last fragments")
	return 0, 0, nil
}

// cheapLegs counts the plan's legs cheapLeg reports cheap.
func cheapLegs(srv *Server, st *dsa.Store, plan *dsa.Plan, engine dsa.Engine) int {
	n := 0
	for _, leg := range plan.Legs {
		if srv.cheapLeg(st, leg, engine) {
			n++
		}
	}
	return n
}

// TestCheapLegProbe: on a cold paper deployment no leg of a
// cross-fragment pair is cheap; once the pair has run, every leg of it
// is — the transit and last legs read built border tables, the first
// leg's source row is in the leg cache — and probing promotes or
// counts nothing. Another source's first leg is still not cheap.
func TestCheapLegProbe(t *testing.T) {
	const engine = dsa.EngineDijkstra
	srv, st := newPaperServer(t, Config{CacheCapacity: 64})
	src, dst, plan := crossPair(t, st, -1)
	if n := cheapLegs(srv, st, plan, engine); n != 0 {
		t.Errorf("cold %d→%d: %d of %d legs cheap, want none", src, dst, n, len(plan.Legs))
	}
	if _, _, err := runPair(srv, src, dst, engine, tcq.ModeCost); err != nil {
		t.Fatal(err)
	}
	before := srv.cache.snapshot()
	if n := cheapLegs(srv, st, plan, engine); n != len(plan.Legs) {
		t.Errorf("warm %d→%d: %d of %d legs cheap, want all", src, dst, n, len(plan.Legs))
	}
	if after := srv.cache.snapshot(); after != before {
		t.Errorf("probing moved the cache counters: %+v → %+v", before, after)
	}
	other, _, plan2 := crossPair(t, st, src)
	if srv.cheapLeg(st, sourceLeg(t, plan2, other), engine) {
		t.Errorf("%d→%d: the first leg of a source never asked is cheap", other, dst)
	}
}

// sourceLeg returns the plan's leg from src alone.
func sourceLeg(t *testing.T, plan *dsa.Plan, src graph.NodeID) dsa.Leg {
	t.Helper()
	for _, leg := range plan.Legs {
		if len(leg.Entry) == 1 && leg.Entry[0] == src {
			return leg
		}
	}
	t.Fatalf("no leg from %d alone in %+v", src, plan.Legs)
	return dsa.Leg{}
}

// TestCheapLegEvictedBeforeRun: with a one-entry leg cache, the probe
// finds the first leg's source row, and another query evicts it before
// the leg runs. The leg, inline on the caller's goroutine, runs its
// kernel instead, and the answer is still, bit for bit, the library's
// run of the plan on Dijkstra legs (no table, no cache).
func TestCheapLegEvictedBeforeRun(t *testing.T) {
	const engine = dsa.EngineDijkstra
	srv, st := newPaperServer(t, Config{CacheCapacity: 1})
	src, dst, plan := crossPair(t, st, -1)
	other, _, _ := crossPair(t, st, src)
	if _, _, err := runPair(srv, src, dst, engine, tcq.ModeCost); err != nil {
		t.Fatal(err)
	}
	snap := srv.Dataset().Snapshot()
	evicted := false
	res, err := st.RunLegs(context.Background(), plan, func(ctx context.Context, leg dsa.Leg) (*dsa.LegResult, error) {
		lr, _, err := srv.executeLegLocal(ctx, snap, leg, engine)
		return lr, err
	}, func(leg dsa.Leg) bool {
		cheap := srv.cheapLeg(st, leg, engine)
		if cheap && !evicted && len(leg.Entry) == 1 && leg.Entry[0] == src {
			if _, _, err := runPair(srv, other, dst, engine, tcq.ModeCost); err != nil {
				t.Fatal(err)
			}
			evicted = true
		}
		return cheap
	})
	if err != nil {
		t.Fatal(err)
	}
	if !evicted {
		t.Fatalf("the probe never found %d's row in the cache", src)
	}
	site := st.Site(sourceLeg(t, plan, src).SiteID)
	if !srv.cache.has(legKey{site: site, engine: engine, source: src}) || srv.cache.has(legKey{site: site, engine: engine, source: other}) {
		t.Errorf("the cache does not hold %d's row alone: the leg found %d's row evicted and did not recompute it", src, src)
	}
	want, err := st.RunPlanCtx(context.Background(), plan, engine)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || math.Float64bits(res.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("%d→%d after the eviction: %v (reachable %v), the library's Dijkstra legs %v", src, dst, res.Cost, res.Reachable, want.Cost)
	}
}
