package dsa

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/internal/relation"
)

// ringStore builds a ring of four fragments (symmetric unit edges
// i↔i+1), whose cyclic fragmentation graph gives the 0→2 plan several
// chains and therefore sites with more than one leg.
func ringStore(t *testing.T) *Store {
	t.Helper()
	g := graph.New()
	var sets [][]graph.Edge
	for i := 0; i < 4; i++ {
		e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID((i + 1) % 4), Weight: 1}
		g.AddEdge(e)
		g.AddEdge(e.Reverse())
		sets = append(sets, []graph.Edge{e, e.Reverse()})
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// withoutTimings zeroes the wall-clock fields of a result so two runs
// of the same plan compare equal.
func withoutTimings(res *Result) *Result {
	out := *res
	out.Elapsed, out.CriticalPath = 0, 0
	out.PerSite = make(map[int]SiteWork, len(res.PerSite))
	for id, w := range res.PerSite {
		w.Elapsed = 0
		out.PerSite[id] = w
	}
	return &out
}

func TestRunLegs(t *testing.T) {
	st := ringStore(t)
	plan, err := st.NewPlan(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	legsOf := make(map[int]int)
	for _, l := range plan.Legs {
		legsOf[l.SiteID]++
	}
	busy := plan.SitesInvolved()[0]
	if legsOf[busy] < 2 {
		t.Fatalf("fixture: site %d has %d legs, want at least 2", busy, legsOf[busy])
	}
	execute := func(ctx context.Context, leg Leg) (*LegResult, error) {
		return st.ExecuteLegCtx(ctx, leg, EngineDijkstra)
	}
	errBoom := errors.New("boom")

	for _, parallel := range []bool{false, true} {
		// A leg error on one site is the run's error; no Result escapes.
		res, err := st.RunLegs(context.Background(), plan, parallel, func(ctx context.Context, leg Leg) (*LegResult, error) {
			if leg.SiteID == busy {
				return nil, errBoom
			}
			return execute(ctx, leg)
		})
		if !errors.Is(err, errBoom) || res != nil {
			t.Errorf("parallel=%v: failing leg: res %v, err %v; want nil, boom", parallel, res, err)
		}

		// Cancellation after a site's first leg: ErrCanceled, and the
		// site's remaining legs are never started.
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		calls := make(map[int]int)
		res, err = st.RunLegs(ctx, plan, parallel, func(ctx context.Context, leg Leg) (*LegResult, error) {
			mu.Lock()
			calls[leg.SiteID]++
			mu.Unlock()
			lr, err := execute(ctx, leg)
			if leg.SiteID == busy {
				cancel()
			}
			return lr, err
		})
		cancel()
		if !errors.Is(err, ErrCanceled) || res != nil {
			t.Errorf("parallel=%v: canceled run: res %v, err %v; want nil, ErrCanceled", parallel, res, err)
		}
		if calls[busy] != 1 {
			t.Errorf("parallel=%v: site %d ran %d legs after cancellation, want 1", parallel, busy, calls[busy])
		}
	}

	seq, err := st.RunLegs(context.Background(), plan, false, execute)
	if err != nil {
		t.Fatal(err)
	}
	par, err := st.RunLegs(context.Background(), plan, true, execute)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutTimings(seq), withoutTimings(par)) {
		t.Errorf("sequential %+v\nparallel   %+v", seq, par)
	}
	if !seq.Reachable || seq.Cost != 2 || seq.MessagesSent != len(plan.Legs) {
		t.Errorf("ring 0→2 = %+v", seq)
	}
}

// TestFinishPlanMalformedFact: a leg fact that is not (int64, int64,
// float64) is an error from assembly, never a panic.
func TestFinishPlanMalformedFact(t *testing.T) {
	st, _ := pathStore(t)
	plan, err := st.NewPlan(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	rel := func(schema []string, fact relation.Tuple) *relation.Relation {
		r := relation.New(schema...)
		r.MustInsert(fact)
		return r
	}
	edge := []string{"src", "dst", "cost"}
	for _, bad := range []*relation.Relation{
		rel(edge, relation.Tuple{int64(0), int64(3), "far"}),
		rel(edge, relation.Tuple{int64(0), 3.0, 1.0}),
		rel(edge, relation.Tuple{"0", int64(3), 1.0}),
		rel(edge[:2], relation.Tuple{int64(0), int64(3)}),
	} {
		results := make([]*LegResult, len(plan.Legs))
		for i, leg := range plan.Legs {
			results[i] = &LegResult{Leg: leg, Rel: bad}
		}
		res, _ := st.PlanResult(plan)
		if err := st.FinishPlan(plan, results, res); err == nil {
			t.Errorf("facts %v assembled without error", bad.Tuples())
		}
	}
}
