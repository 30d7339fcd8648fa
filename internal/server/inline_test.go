package server

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
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

// goroutineCtx records the goroutine of every Err call. RunLegs calls
// Err before each leg, on the goroutine that runs the leg's site.
type goroutineCtx struct {
	context.Context
	mu  sync.Mutex
	ids map[string]int
}

func (c *goroutineCtx) Err() error {
	c.mu.Lock()
	c.ids[goroutineID()]++
	c.mu.Unlock()
	return c.Context.Err()
}

// goroutineID is the calling goroutine's number, from the first line
// of its stack ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestLocalSitesRunInline: a cold paper cross-fragment pair, whose legs
// build border tables or a cached row on two sites or more, runs every
// leg on the caller's goroutine, since a single node owns every site,
// and answers bit for bit what the library's run of the plan on
// Dijkstra legs (no table, no cache) answers.
func TestLocalSitesRunInline(t *testing.T) {
	const engine = dsa.EngineDijkstra
	srv, st := newPaperServer(t, Config{CacheCapacity: 64})
	src, dst, plan := crossPair(t, st, -1)
	for _, site := range st.Sites() {
		if site.TableBytes() != 0 {
			t.Fatalf("site %d has a border table before the first query", site.ID)
		}
	}
	ctx := &goroutineCtx{Context: context.Background(), ids: map[string]int{}}
	res, _, err := srv.RunPair(ctx, srv.Dataset().Snapshot(), src, dst, engine, tcq.ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if caller := goroutineID(); len(ctx.ids) != 1 || ctx.ids[caller] < len(plan.Legs) {
		t.Errorf("%d→%d: legs observed ctx on goroutines %v, want only the caller's (%s)", src, dst, ctx.ids, caller)
	}
	kernels := 0
	for _, id := range plan.SitesInvolved() {
		if table, _ := entryTable(srv.cache, legKey{site: st.Site(id), engine: engine, source: src}); table != nil || st.Site(id).TableBytes() > 0 {
			kernels++
		}
	}
	if kernels < 2 {
		t.Fatalf("%d→%d: the cold query ran kernels on %d sites, want two or more", src, dst, kernels)
	}
	want, err := st.RunPlanCtx(context.Background(), plan, engine)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || math.Float64bits(res.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("%d→%d: %v (reachable %v), the library's Dijkstra legs %v", src, dst, res.Cost, res.Reachable, want.Cost)
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

// heldTransport holds each leg it ships until release reports that
// a local leg has run, and fails the leg if that takes 5 s: a peer's
// leg run inline ahead of the local ones would wait for them forever.
type heldTransport struct {
	cluster.Transport
	release func() bool
}

func (h *heldTransport) ExecuteLeg(ctx context.Context, req *cluster.LegRequest) (*cluster.LegResponse, error) {
	for deadline := time.Now().Add(5 * time.Second); !h.release(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("site %d's leg waited 5 s for a local leg", req.Site)
		}
	}
	return h.Transport.ExecuteLeg(ctx, req)
}

// TestPeerLegsNeverAheadOfLocal: on a two-member cluster, a query on
// two sites, the first a peer's and the second this member's, runs the
// local leg without waiting for the peer's, which the transport holds
// until a local leg has run: the lone peer's site runs last.
func TestPeerLegsNeverAheadOfLocal(t *testing.T) {
	var a *Server
	var owned []int
	tcl := newTestCluster(t, 24, 4, 8, 2, func(i int, cfg *cluster.Config) {
		if i == 0 {
			cfg.Retry.Attempts = 1
			cfg.NewTransport = func(n cluster.Node) cluster.Transport {
				return &heldTransport{Transport: cluster.NewHTTPTransport(n, 10*time.Second), release: func() bool {
					return slices.ContainsFunc(owned, func(site int) bool { return a.siteLegs[site].Load() > 0 })
				}}
			}
		}
	})
	a = tcl.servers[0]
	st := a.Dataset().Snapshot().Store()
	remote := -1
	for site := range st.Fragmentation().NumFragments() {
		if a.cluster.IsLocal(site) {
			owned = append(owned, site)
		} else if remote < 0 && a.cluster.IsLocal(site+1) {
			remote = site
		}
	}
	if remote < 0 {
		t.Fatalf("ring dealt node a sites %v: none right after a peer's", owned)
	}
	src, dst := interior(st, remote)[0], interior(st, remote+1)[0]
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sites := plan.SitesInvolved(); !slices.Equal(sites, []int{remote, remote + 1}) {
		t.Fatalf("%d→%d runs on sites %v, want %d and %d", src, dst, sites, remote, remote+1)
	}
	res, _, err := runPair(a, src, dst, dsa.EngineDijkstra, tcq.ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.RunPlanCtx(context.Background(), plan, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || math.Float64bits(res.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("%d→%d: %v (reachable %v), the library's %v", src, dst, res.Cost, res.Reachable, want.Cost)
	}
}
