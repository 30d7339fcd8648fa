package dsa

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

	// A leg error on one site is the run's error; no Result escapes.
	res, err := st.RunLegs(context.Background(), plan, func(ctx context.Context, leg Leg) (*LegResult, error) {
		if leg.SiteID == busy {
			return nil, errBoom
		}
		return execute(ctx, leg)
	}, nil)
	if !errors.Is(err, errBoom) || res != nil {
		t.Errorf("failing leg: res %v, err %v; want nil, boom", res, err)
	}

	// Cancellation after a site's first leg: ErrCanceled, and the
	// site's remaining legs are never started.
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	calls := make(map[int]int)
	res, err = st.RunLegs(ctx, plan, func(ctx context.Context, leg Leg) (*LegResult, error) {
		mu.Lock()
		calls[leg.SiteID]++
		mu.Unlock()
		lr, err := execute(ctx, leg)
		if leg.SiteID == busy {
			cancel()
		}
		return lr, err
	}, nil)
	cancel()
	if !errors.Is(err, ErrCanceled) || res != nil {
		t.Errorf("canceled run: res %v, err %v; want nil, ErrCanceled", res, err)
	}
	if calls[busy] != 1 {
		t.Errorf("site %d ran %d legs after cancellation, want 1", busy, calls[busy])
	}

	par, err := st.RunLegs(context.Background(), plan, execute, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := runSequential(t, st, plan, EngineDijkstra)
	if !reflect.DeepEqual(withoutTimings(seq), withoutTimings(par)) {
		t.Errorf("sequential %+v\nparallel   %+v", seq, par)
	}
	if !par.Reachable || par.Cost != 2 || par.MessagesSent != len(plan.Legs) {
		t.Errorf("ring 0→2 = %+v", par)
	}
}

// TestRunLegsInline: the sites the predicate holds of run on the
// calling goroutine in SitesInvolved order, each site's legs in plan
// order, and a lone site it does not hold of runs after them. The
// order is recorded in an unguarded slice, so -race fails if two legs
// ever run at once.
func TestRunLegsInline(t *testing.T) {
	st := ringStore(t)
	plan, err := st.NewPlan(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := plan.SitesInvolved()
	for _, c := range []struct {
		name   string
		inline func(siteID int) bool
		order  []int // the sites in the order they must run
	}{
		{"all inline", func(int) bool { return true }, sites},
		{"first site lone", func(id int) bool { return id != sites[0] }, append(slices.Clone(sites[1:]), sites[0])},
	} {
		var want []Leg
		for _, id := range c.order {
			for _, leg := range plan.Legs {
				if leg.SiteID == id {
					want = append(want, leg)
				}
			}
		}
		var ran []Leg
		res, err := st.RunLegs(context.Background(), plan, func(ctx context.Context, leg Leg) (*LegResult, error) {
			ran = append(ran, leg)
			return st.ExecuteLegCtx(ctx, leg, EngineDijkstra)
		}, c.inline)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ran, want) {
			t.Errorf("%s: legs ran as %v, want %v", c.name, ran, want)
		}
		if seq := runSequential(t, st, plan, EngineDijkstra); !reflect.DeepEqual(withoutTimings(seq), withoutTimings(res)) {
			t.Errorf("%s: sequential %+v\ninline     %+v", c.name, seq, res)
		}
	}
}

// TestRunLegsKernelSitesOverlap: two sites the predicate does not hold
// of run at once, whether it holds of every other site or, nil, of
// none. Each first leg of the two waits at a two-party barrier, which
// only opens if both run concurrently. The first site's legs, recorded
// in an unguarded slice, still run one after another in plan order:
// -race fails if two of them ever run at once.
func TestRunLegsKernelSitesOverlap(t *testing.T) {
	st := ringStore(t)
	plan, err := st.NewPlan(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := plan.SitesInvolved()
	if len(sites) < 3 {
		t.Fatalf("fixture: %d sites, want at least 3", len(sites))
	}
	a, b := sites[0], sites[1]
	var wantA []Leg
	for _, leg := range plan.Legs {
		if leg.SiteID == a {
			wantA = append(wantA, leg)
		}
	}
	for _, inline := range []func(int) bool{nil, func(id int) bool { return id != a && id != b }} {
		var parties sync.WaitGroup
		parties.Add(2)
		met := make(chan struct{})
		go func() { parties.Wait(); close(met) }()
		var waited [2]atomic.Bool
		var ranA []Leg
		res, err := st.RunLegs(context.Background(), plan, func(ctx context.Context, leg Leg) (*LegResult, error) {
			if leg.SiteID == a {
				ranA = append(ranA, leg)
			}
			if p := slices.Index([]int{a, b}, leg.SiteID); p >= 0 && !waited[p].Swap(true) {
				parties.Done()
				select {
				case <-met:
				case <-time.After(5 * time.Second):
					return nil, fmt.Errorf("site %d waited 5 s for site %d's leg", leg.SiteID, a+b-leg.SiteID)
				}
			}
			return st.ExecuteLegCtx(ctx, leg, EngineDijkstra)
		}, inline)
		if err != nil {
			t.Fatalf("inline %v: %v", inline != nil, err)
		}
		if !reflect.DeepEqual(ranA, wantA) {
			t.Errorf("inline %v: site %d ran %v, want %v", inline != nil, a, ranA, wantA)
		}
		if !res.Reachable || res.Cost != 2 {
			t.Errorf("ring 0→2 = %+v", res)
		}
	}
}

// runSequential is the reference run of a plan: its legs executed one
// after another in plan order, then FinishPlan.
func runSequential(t *testing.T, st *Store, plan *Plan, engine Engine) *Result {
	t.Helper()
	res, done := st.PlanResult(plan)
	if done {
		return res
	}
	results := make([]*LegResult, len(plan.Legs))
	for i, leg := range plan.Legs {
		lr, err := st.ExecuteLegCtx(context.Background(), leg, engine)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = lr
	}
	if err := st.FinishPlan(plan, results, res); err != nil {
		t.Fatal(err)
	}
	return res
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
