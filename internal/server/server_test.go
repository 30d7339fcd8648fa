package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/pkg/tcq"
)

// newGridServer builds a W×H grid store fragmented into frags linear
// fragments and deploys a server over it.
func newGridServer(t *testing.T, w, h, frags int, cfg Config) (*Server, *dsa.Store) {
	t.Helper()
	g, err := gen.Grid(gen.GridConfig{Width: w, Height: h, DiagonalProb: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: frags})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(res.Fragmentation, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(t, st, cfg), st
}

// newServer deploys a server over a built store, closed with the test.
func newServer(t *testing.T, st *dsa.Store, cfg Config) *Server {
	t.Helper()
	ds, err := tcq.OpenDataset(st)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDataset(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// runPair enters the server's executor where the facade does, on the
// current snapshot, with the engine forced.
func runPair(srv *Server, src, dst graph.NodeID, engine dsa.Engine, mode tcq.Mode) (*dsa.Result, tcq.RunStats, error) {
	return srv.RunPair(context.Background(), srv.Dataset().Snapshot(), src, dst, engine, mode)
}

// applyOne applies a single-op batch through the server.
func applyOne(srv *Server, op tcq.Op) error {
	_, err := srv.ApplyBatch(context.Background(), new(tcq.Batch).Add(op))
	return err
}

// TestCanceledQueryChargesNoSite: a query whose context ends before
// its legs run gives up typed, charges no site, leaves none of its
// goroutines behind, and the next query answers.
func TestCanceledQueryChargesNoSite(t *testing.T) {
	srv, _ := newGridServer(t, 8, 8, 2, Config{CacheCapacity: 64})
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := srv.RunPair(ctx, srv.Dataset().Snapshot(), 0, 63, dsa.EngineDijkstra, tcq.ModeCost)
	if !errors.Is(err, tcq.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunPair on a canceled context: %v, want ErrCanceled wrapping context.Canceled", err)
	}
	for i, work := range srv.Stats().Site {
		if work.Legs != 0 || work.BusyNS != 0 {
			t.Errorf("site %d charged %+v for a leg that never ran", i, work)
		}
	}
	// RunLegs has waited for its per-site goroutines; give the runtime a
	// moment to retire them before counting.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the query (%d before it)", runtime.NumGoroutine(), goroutines)
		}
	}
	if _, _, err := runPair(srv, 0, 63, dsa.EngineDijkstra, tcq.ModeCost); err != nil {
		t.Fatalf("query after the canceled one: %v", err)
	}
}

// TestServerConnectedAllEngines: the served facade is one more view to
// the oracle — every (mode, engine) the planner accepts, the bitset
// engine's connectivity among them, twice so that the second pass is
// answered from the leg cache.
func TestServerConnectedAllEngines(t *testing.T) {
	srv, st := newGridServer(t, 6, 6, 3, Config{CacheCapacity: 256})
	g := &oracle.Generation{Name: "6x6 grid", Fragmenter: "linear", Final: st.Fragmentation(),
		Sources: []int{0, 7, 20, 35}, Targets: []int{0, 5, 18, 33}}
	views := []oracle.View{{Name: "served", Q: srv.Facade()}, {Name: "served+cache", Q: srv.Facade()}}
	if err := new(oracle.Tally).Check(context.Background(), g, views); err != nil {
		t.Error(err)
	}
	if srv.Stats().Cache.Hits == 0 {
		t.Error("no cache hits over repeated identical requests")
	}
}

// TestServerUpdateInvalidatesCache inserts a shortcut edge that changes
// a cached answer and checks the served cost moves to the new optimum
// (a stale cache would keep answering the old cost).
func TestServerUpdateInvalidatesCache(t *testing.T) {
	srv, _ := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 256})
	src, dst := graph.NodeID(0), graph.NodeID(63)
	before, _, err := runPair(srv, src, dst, dsa.EngineDijkstra, tcq.ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache with a second identical query.
	if _, qs, err := runPair(srv, src, dst, dsa.EngineDijkstra, tcq.ModeCost); err != nil || qs.CacheHits == 0 {
		t.Fatalf("warm query: hits=%d err=%v", qs.CacheHits, err)
	}
	// A directed 0→63 shortcut far cheaper than any grid path.
	if err := applyOne(srv, tcq.Insert(0, int(src), int(dst), 0.25)); err != nil {
		t.Fatal(err)
	}
	after, _, err := runPair(srv, src, dst, dsa.EngineDijkstra, tcq.ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after.Cost-0.25) > 1e-9 {
		t.Errorf("cost after shortcut insert = %v, want 0.25 (before: %v)", after.Cost, before.Cost)
	}
	// And deleting restores the original answer.
	if err := applyOne(srv, tcq.Delete(0, int(src), int(dst), 0.25)); err != nil {
		t.Fatal(err)
	}
	restored, _, err := runPair(srv, src, dst, dsa.EngineDijkstra, tcq.ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(restored.Cost-before.Cost) > 1e-9 {
		t.Errorf("cost after delete = %v, want %v", restored.Cost, before.Cost)
	}
	st := srv.Stats()
	if st.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", st.Epoch)
	}
	if st.Cache.Sweeps != 2 {
		t.Errorf("cache invalidation sweeps = %d, want 2", st.Cache.Sweeps)
	}
	if st.Cache.Invalidated == 0 {
		t.Error("inserting a shortcut into a cached fragment must invalidate its entries eagerly")
	}
}

// TestNegativeWeightWriteServesFreshAnswer: on a site whose search
// graph has a negative weight (a graph file may carry one; forced
// dijkstra still answers there), Dijkstra's table depends on settle
// order, which an insert that improves no cost can still change. Here
// e->u 1, e->y 5, y->v -5, v->z 1 gives z 1 from e; inserting u->v 1
// lets the search settle v at 2 before y relaxes it, so a fresh build
// answers z 3. A warm cache must serve what the fresh build does, not
// the table it held before the write.
func TestNegativeWeightWriteServesFreshAnswer(t *testing.T) {
	const e, u, y, v, z = 0, 1, 2, 3, 4
	edges := []graph.Edge{{From: e, To: u, Weight: 1}, {From: e, To: y, Weight: 5}, {From: y, To: v, Weight: -5}, {From: v, To: z, Weight: 1}}
	build := func(edges []graph.Edge) *dsa.Store {
		g := graph.New()
		for _, ed := range edges {
			g.AddEdge(ed)
		}
		fr, err := fragment.New(g, [][]graph.Edge{edges})
		if err != nil {
			t.Fatal(err)
		}
		st, err := dsa.Build(fr, dsa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	srv := newServer(t, build(edges), Config{CacheCapacity: 16})
	if _, _, err := runPair(srv, e, z, dsa.EngineDijkstra, tcq.ModeCost); err != nil {
		t.Fatal(err)
	}
	if err := applyOne(srv, tcq.Insert(0, u, v, 1)); err != nil {
		t.Fatal(err)
	}
	served, _, err := runPair(srv, e, z, dsa.EngineDijkstra, tcq.ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := runPair(newServer(t, build(append(edges, graph.Edge{From: u, To: v, Weight: 1})), Config{}), e, z, dsa.EngineDijkstra, tcq.ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if served.Cost != fresh.Cost || fresh.Cost != 3 {
		t.Errorf("e->z after the insert: served %v, fresh build %v; want both 3", served.Cost, fresh.Cost)
	}
}

// TestCancelledWriteKeepsSiteTables: a batch that inserts an edge and
// deletes it again, as the ledger's writes do, leaves the fragment's
// edge set as it was, so the swap shares the site and every cached
// table on it stays a hit: nothing is rebuilt or invalidated.
func TestCancelledWriteKeepsSiteTables(t *testing.T) {
	srv, st := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 256})
	if _, _, err := runPair(srv, 0, 63, dsa.EngineDense, tcq.ModeCost); err != nil {
		t.Fatal(err)
	}
	frag := st.Fragmentation().FragmentsOf(0)[0]
	b := new(tcq.Batch).Add(tcq.Insert(frag, 0, 1, 1e9)).Add(tcq.Delete(frag, 0, 1, 1e9))
	if _, err := srv.ApplyBatch(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if srv.Dataset().Snapshot().Store().Site(frag) != st.Site(frag) {
		t.Error("a batch whose ops cancel out rebuilt the site")
	}
	before := srv.Stats().Cache
	if _, qs, err := runPair(srv, 0, 63, dsa.EngineDense, tcq.ModeCost); err != nil || qs.CacheMisses != 0 {
		t.Errorf("after a cancelled write: %d misses, err %v; want every leg a hit", qs.CacheMisses, err)
	}
	if before.Invalidated != 0 {
		t.Errorf("after a cancelled write: %d invalidated; want none", before.Invalidated)
	}
}

// TestSupersededSiteCollectable: a rebuilt site answers its first leg
// with a kernel run; the sweep of the write that replaced its
// predecessor drops the predecessor's source rows, asked again or not,
// and once the snapshot history has let its generation go the
// superseded site is garbage.
func TestSupersededSiteCollectable(t *testing.T) {
	srv, st := newGridServer(t, 6, 6, 4, Config{CacheCapacity: 16})
	frag := st.Fragmentation().FragmentsOf(0)[0]
	nodes := interior(st, frag)
	leg := dsa.Leg{SiteID: frag, Entry: nodes[:1]}
	unasked := dsa.Leg{SiteID: frag, Entry: nodes[len(nodes)-1:]}
	ctx := context.Background()
	for _, l := range []dsa.Leg{leg, unasked} {
		if _, _, err := srv.executeLegLocal(ctx, srv.Dataset().Snapshot(), l, dsa.EngineDense); err != nil {
			t.Fatal(err)
		}
	}
	old := weak.Make(srv.Dataset().Snapshot().Store().Site(frag))
	before := srv.Stats().Cache
	if err := applyOne(srv, tcq.Insert(frag, 0, 1, 5)); err != nil {
		t.Fatal(err)
	}
	if after := srv.Stats().Cache; after.Entries != 0 || after.Invalidated-before.Invalidated != 2 {
		t.Fatalf("after the write: %d entries, %d invalidated; want the superseded site's 2 dropped", after.Entries, after.Invalidated-before.Invalidated)
	}
	if _, hit, err := srv.executeLegLocal(ctx, srv.Dataset().Snapshot(), leg, dsa.EngineDense); err != nil || hit {
		t.Fatalf("first leg on the rebuilt site: hit %v, err %v; want a miss", hit, err)
	}
	// Writes elsewhere push the old generation out of the history.
	other := (frag + 1) % 4
	e := srv.Dataset().Snapshot().Store().Fragmentation().Fragment(other).Edges[0]
	for i := range epochHistoryDepth {
		op := tcq.Insert(other, int(e.From), int(e.To), 9)
		if i%2 == 1 {
			op = tcq.Delete(other, int(e.From), int(e.To), 9)
		}
		if err := applyOne(srv, op); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if old.Value() != nil {
		t.Error("the superseded site is still reachable after its entries were swept and its generation evicted")
	}
}

// TestPinnedReaderHitsSharedSite: a reader pinned one epoch back hits,
// on a site the swap shared, the table a reader at the new epoch put —
// a leg table belongs to its site, not to a generation.
func TestPinnedReaderHitsSharedSite(t *testing.T) {
	srv, _ := newGridServer(t, 6, 6, 4, Config{CacheCapacity: 64})
	old := srv.Dataset().Snapshot()
	if err := applyOne(srv, tcq.Insert(0, 0, 1, 9)); err != nil {
		t.Fatal(err)
	}
	cur := srv.Dataset().Snapshot()
	shared := -1
	for i, site := range cur.Store().Sites() {
		if site == old.Store().Site(i) {
			shared = i
			break
		}
	}
	if shared < 0 {
		t.Fatal("the batch shared no site")
	}
	leg := dsa.Leg{SiteID: shared, Entry: interior(cur.Store(), shared)[:1]}
	ctx := context.Background()
	if _, hit, err := srv.executeLegLocal(ctx, cur, leg, dsa.EngineDijkstra); err != nil || hit {
		t.Fatalf("first leg at epoch %d: hit %v, err %v; want a miss", cur.Epoch(), hit, err)
	}
	before := srv.Stats().Cache
	if _, hit, err := srv.executeLegLocal(ctx, old, leg, dsa.EngineDijkstra); err != nil || !hit {
		t.Errorf("leg pinned at epoch %d on shared site %d: hit %v, err %v; want the epoch-%d table", old.Epoch(), shared, hit, err, cur.Epoch())
	}
	if after := srv.Stats().Cache; after.Hits != before.Hits+1 || after.Entries != before.Entries {
		t.Errorf("the pinned leg moved the cache from %+v to %+v; want one hit on the entry already there", before, after)
	}
}

func TestServerRefusals(t *testing.T) {
	srv, _ := newGridServer(t, 4, 4, 2, Config{CacheCapacity: 16})
	// Mode/engine compatibility is the planner's rule: it refuses
	// before RunPair is reached.
	_, err := srv.Facade().Query(context.Background(), tcq.Request{
		Sources: []int{0}, Targets: []int{15}, Mode: tcq.ModeCost, Engine: tcq.EngineBitset})
	if !errors.Is(err, tcq.ErrEngineMismatch) {
		t.Errorf("bitset cost query: got %v, want ErrEngineMismatch", err)
	}
	if _, _, err := runPair(srv, 0, 15, dsa.Engine(9), tcq.ModeCost); !errors.Is(err, tcq.ErrUnknownEngine) {
		t.Errorf("unknown engine: got %v, want ErrUnknownEngine", err)
	}
	if _, _, err := runPair(srv, 0, 4096, dsa.EngineDijkstra, tcq.ModeCost); !errors.Is(err, tcq.ErrUnknownNode) {
		t.Errorf("unknown node: got %v, want ErrUnknownNode", err)
	}
	if got := srv.Stats().Errors; got != 2 {
		t.Errorf("stats.errors = %d, want 2 (one per failed RunPair)", got)
	}
	if _, err := NewDataset(nil, Config{}); err == nil {
		t.Error("nil dataset accepted")
	}
}

// TestReachabilityStoreRefusesCostQueries: the planner's refusal holds
// through the server-backed facade, and connectivity still answers.
func TestReachabilityStoreRefusesCostQueries(t *testing.T) {
	g, err := gen.Grid(gen.GridConfig{Width: 4, Height: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(res.Fragmentation, dsa.Options{Problem: dsa.ProblemReachability})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, st, Config{CacheCapacity: 16})
	_, err = srv.Facade().Query(context.Background(), tcq.Request{
		Sources: []int{0}, Targets: []int{15}, Mode: tcq.ModeCost, Engine: tcq.EngineDijkstra})
	if !errors.Is(err, tcq.ErrProblemMismatch) {
		t.Errorf("cost query on reachability store: got %v, want ErrProblemMismatch", err)
	}
	got, _, err := runPair(srv, 0, 15, dsa.EngineBitset, tcq.ModeConnectivity)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Reachable {
		t.Error("grid corners not connected")
	}
}

// TestHTTPEndpoints drives the JSON API end to end over httptest:
// liveness, the three query modes against the library's answer, and the
// /stats counters they advance. Error envelopes and /v1/update have
// their own tables in v1_test.go.
func TestHTTPEndpoints(t *testing.T) {
	srv, st := newGridServer(t, 6, 6, 3, Config{CacheCapacity: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	lib, err := tcq.Open(st) // the same store without server or cache
	if err != nil {
		t.Fatal(err)
	}
	want, err := lib.Cost(context.Background(), 0, 35)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", resp.StatusCode)
	}

	// Pooled cost (planner's choice and forced dense, which share the
	// leg cache like any engine); the planner picks the dense kernel for
	// cost and pipelined alike, however small the fragments.
	for _, tc := range []struct {
		mode, engine, wantEngine string
	}{
		{"cost", "", "dense"},
		{"cost", "dense", "dense"},
		{"pipelined", "", "dense"},
		{"pipelined", "dense", "dense"},
	} {
		var vr V1QueryResponse
		req := V1Request{Sources: []int{0}, Targets: []int{35}, Mode: tc.mode, Engine: tc.engine}
		if status := postV1(t, ts.URL+"/v1/query", req, &vr); status != http.StatusOK {
			t.Fatalf("%s/%s: status %d", tc.mode, tc.engine, status)
		}
		a := vr.Answers[0]
		if !a.Reachable || a.Cost == nil || math.Abs(*a.Cost-want) > 1e-9 {
			t.Errorf("%s/%s 0->35 = %+v, the library answers %v", tc.mode, tc.engine, a, want)
		}
		if vr.Explain.Engine != tc.wantEngine {
			t.Errorf("%s/%s ran engine %q, want %q", tc.mode, tc.engine, vr.Explain.Engine, tc.wantEngine)
		}
	}
	var cr V1QueryResponse
	postV1(t, ts.URL+"/v1/query", V1Request{Sources: []int{0}, Targets: []int{35}, Engine: "bitset"}, &cr)
	if len(cr.Answers) != 1 || !cr.Answers[0].Reachable {
		t.Errorf("corners not connected over HTTP: %+v", cr)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr Stats
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Nodes != 36 || sr.Sites != 3 {
		t.Errorf("stats nodes=%d sites=%d, want 36 and 3", sr.Nodes, sr.Sites)
	}
	if sr.Queries != 2 || sr.PipelinedQueries != 2 || sr.ConnectedQueries != 1 || sr.Errors != 0 {
		t.Errorf("stats miscounted the five queries: %+v", sr)
	}
}

// TestRouteTable pins the wire surface: exactly the /v1 API plus the
// operational GETs are served, and the unversioned routes removed in
// PR 14 answer 404.
func TestRouteTable(t *testing.T) {
	srv, _ := newGridServer(t, 4, 4, 2, Config{})
	h := srv.Handler()
	status := func(method, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		return rec.Code
	}
	served := map[string]string{
		"/v1/query": http.MethodPost, "/v1/batch": http.MethodPost,
		"/v1/update": http.MethodPost, "/v1/leg": http.MethodPost,
		"/stats": http.MethodGet, "/metrics": http.MethodGet,
		"/healthz": http.MethodGet, "/readyz": http.MethodGet,
	}
	for path, method := range served {
		if code := status(method, path); code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want the route served", method, path, code)
		}
	}
	for _, gone := range [][2]string{
		{http.MethodGet, "/query?src=0&dst=1"},
		{http.MethodGet, "/connected?src=0&dst=1"},
		{http.MethodPost, "/update"},
		{http.MethodGet, "/"},
	} {
		if code := status(gone[0], gone[1]); code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", gone[0], gone[1], code)
		}
	}
	// Every route registers its endpoint label when the handler is
	// built, so the label set IS the served set: nothing beyond the
	// eight above.
	for name := range srv.Stats().Metrics {
		if rest, ok := strings.CutPrefix(name, `tc_http_requests_total{endpoint="`); ok {
			path := strings.TrimSuffix(rest, `"}`)
			if _, ok := served[path]; !ok {
				t.Errorf("route %q is served but not in the pinned table", path)
			}
			delete(served, path)
		}
	}
	if len(served) != 0 {
		t.Errorf("pinned routes missing from the handler: %v", served)
	}
}
