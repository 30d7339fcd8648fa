package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/pkg/tcq"
)

// v1Server boots an 8x8 grid deployment behind an httptest server.
func v1Server(t *testing.T) *httptest.Server {
	t.Helper()
	srv, _ := newGridServer(t, 8, 8, 2, Config{CacheCapacity: 256})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postV1 fires one JSON POST and decodes the response into out,
// returning the status code.
func postV1(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func TestV1QueryCost(t *testing.T) {
	srv, _ := newGridServer(t, 8, 8, 2, Config{CacheCapacity: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var vr V1QueryResponse
	status := postV1(t, ts.URL+"/v1/query", V1Request{
		Sources: []int{0}, Targets: []int{63}, Mode: "cost",
	}, &vr)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(vr.Answers) != 1 || !vr.Answers[0].Reachable || vr.Answers[0].Cost == nil {
		t.Fatalf("bad answer: %+v", vr.Answers)
	}
	if want, err := srv.Facade().Cost(context.Background(), 0, 63); err != nil || *vr.Answers[0].Cost != want {
		t.Fatalf("v1 cost %v, the facade it fronts answers %v, %v", *vr.Answers[0].Cost, want, err)
	}
	if vr.Explain.Engine == "" || vr.Explain.Engine == "auto" {
		t.Fatalf("explain engine must be concrete, got %q", vr.Explain.Engine)
	}
	if vr.Explain.Canonical != "cost/"+vr.Explain.Engine {
		t.Fatalf("canonical %q", vr.Explain.Canonical)
	}
}

func TestV1QueryConnectivityAndSets(t *testing.T) {
	ts := v1Server(t)
	var vr V1QueryResponse
	status := postV1(t, ts.URL+"/v1/query", V1Request{
		Sources: []int{0, 1}, Targets: []int{62, 63}, Mode: "connectivity", Limit: 3,
	}, &vr)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(vr.Answers) != 3 || !vr.LimitHit {
		t.Fatalf("limit: got %d answers, limit_hit=%v", len(vr.Answers), vr.LimitHit)
	}
	for _, a := range vr.Answers {
		if !a.Reachable || a.Cost != nil {
			t.Fatalf("connectivity answer: %+v", a)
		}
	}
	if vr.Explain.Pairs != 4 {
		t.Fatalf("explain pairs = %d, want 4", vr.Explain.Pairs)
	}
}

func TestV1TypedErrorCodes(t *testing.T) {
	ts := v1Server(t)
	cases := []struct {
		name       string
		req        V1Request
		wantStatus int
		wantCode   string
	}{
		{"empty sources", V1Request{Targets: []int{1}}, http.StatusBadRequest, "invalid_request"},
		{"bad mode", V1Request{Sources: []int{0}, Targets: []int{1}, Mode: "teleport"}, http.StatusBadRequest, "unknown_mode"},
		{"bad engine", V1Request{Sources: []int{0}, Targets: []int{1}, Engine: "warp"}, http.StatusBadRequest, "unknown_engine"},
		{"bitset cost", V1Request{Sources: []int{0}, Targets: []int{1}, Mode: "cost", Engine: "bitset"}, http.StatusBadRequest, "engine_mismatch"},
		{"seminaive pipelined", V1Request{Sources: []int{0}, Targets: []int{63}, Mode: "pipelined", Engine: "seminaive"}, http.StatusBadRequest, "engine_mismatch"},
		{"bitset pipelined", V1Request{Sources: []int{0}, Targets: []int{63}, Mode: "pipelined", Engine: "bitset"}, http.StatusBadRequest, "engine_mismatch"},
		{"unknown node", V1Request{Sources: []int{0}, Targets: []int{9999}, Mode: "cost"}, http.StatusNotFound, "unknown_node"},
		// Without the MaxBytesReader guard this body would decode and
		// fail later as unknown_engine.
		{"oversized body", V1Request{Sources: []int{0}, Targets: []int{1}, Engine: strings.Repeat("x", maxBodyBytes)}, http.StatusBadRequest, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ve V1Error
			status := postV1(t, ts.URL+"/v1/query", tc.req, &ve)
			if status != tc.wantStatus || ve.Code != tc.wantCode {
				t.Fatalf("got status %d code %q (%.200s), want %d %q", status, ve.Code, ve.Error, tc.wantStatus, tc.wantCode)
			}
		})
	}
	// The batch and update decoders carry the same bound.
	huge := map[string]string{"pad": strings.Repeat("x", maxBodyBytes)}
	for _, path := range []string{"/v1/batch", "/v1/update"} {
		var ve V1Error
		if status := postV1(t, ts.URL+path, huge, &ve); status != http.StatusBadRequest || !strings.Contains(ve.Error, "too large") {
			t.Errorf("oversized %s body: status %d (%.200s), want 400 request body too large", path, status, ve.Error)
		}
	}
}

// TestV1NegativeWeight: on a deployment read from graph files with a
// negative weight, auto picks a kernel for every mode and so answers
// 400 negative_weight; a forced dijkstra still answers.
func TestV1NegativeWeight(t *testing.T) {
	g, err := graph.Read(strings.NewReader("edge 0 1 3\nedge 1 2 -2\nedge 2 3 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fragment.Read(g, strings.NewReader("fragment 0 0 1 3\nfragment 0 1 2 -2\nfragment 1 2 3 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(fr, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(t, st, Config{CacheCapacity: 16}).Handler())
	defer ts.Close()
	for _, mode := range []string{"connectivity", "cost", "pipelined"} {
		var ve V1Error
		if status := postV1(t, ts.URL+"/v1/query", V1Request{Sources: []int{0}, Targets: []int{3}, Mode: mode}, &ve); status != http.StatusBadRequest || ve.Code != "negative_weight" {
			t.Errorf("auto %s: status %d code %q, want 400 negative_weight", mode, status, ve.Code)
		}
		var vr V1QueryResponse
		if status := postV1(t, ts.URL+"/v1/query", V1Request{Sources: []int{0}, Targets: []int{3}, Mode: mode, Engine: "dijkstra"}, &vr); status != http.StatusOK || len(vr.Answers) != 1 || !vr.Answers[0].Reachable {
			t.Errorf("dijkstra %s: status %d, answers %+v; want 200, reachable", mode, status, vr.Answers)
		}
	}
}

// TestV1IsolatedNodeIsNotUnknown: a node the updates left in no fragment
// is still a node of the graph. Asking about it answers 200 with
// reachable:false (true from itself), not 404 unknown_node, and the
// answerable pairs of the same request keep their answers.
func TestV1IsolatedNodeIsNotUnknown(t *testing.T) {
	g := graph.New()
	var path []graph.Edge
	for i := 0; i < 4; i++ { // 0→1→2→3→4, two edges a fragment
		path = append(path, graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1})
		g.AddEdge(path[i])
	}
	fr, err := fragment.New(g, [][]graph.Edge{path[:2], path[2:]})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(fr, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, st, Config{CacheCapacity: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := applyOne(srv, tcq.Delete(1, 3, 4, 1)); err != nil {
		t.Fatal(err)
	}
	var vr V1QueryResponse
	req := V1Request{Sources: []int{0, 4}, Targets: []int{3, 4}, Mode: "cost"}
	if status := postV1(t, ts.URL+"/v1/query", req, &vr); status != http.StatusOK || len(vr.Answers) != 4 {
		t.Fatalf("status %d, answers %+v; want 200 and four answers", status, vr.Answers)
	}
	for i, want := range []struct {
		reachable bool
		cost      float64
	}{{true, 3}, {false, 0}, {false, 0}, {true, 0}} { // 0→3, 0→4, 4→3, 4→4
		a := vr.Answers[i]
		if a.Reachable != want.reachable || want.reachable && (a.Cost == nil || *a.Cost != want.cost) {
			t.Errorf("%d→%d = %+v, want reachable=%v cost %v", a.Source, a.Target, a, want.reachable, want.cost)
		}
	}
	var ve V1Error
	if status := postV1(t, ts.URL+"/v1/query", V1Request{Sources: []int{0}, Targets: []int{5}}, &ve); status != http.StatusNotFound || ve.Code != "unknown_node" {
		t.Errorf("a node absent from the graph: status %d code %q, want 404 unknown_node", status, ve.Code)
	}
}

func TestV1Batch(t *testing.T) {
	ts := v1Server(t)
	var br V1BatchResponse
	status := postV1(t, ts.URL+"/v1/batch", V1BatchRequest{Requests: []V1Request{
		{Sources: []int{0}, Targets: []int{63}, Mode: "cost"},
		{Sources: []int{0}, Targets: []int{1}, Engine: "warp"}, // per-item failure
		{Sources: []int{63}, Targets: []int{0}, Mode: "connectivity"},
	}}, &br)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(br.Results) != 3 {
		t.Fatalf("got %d results", len(br.Results))
	}
	if br.Results[0].Response == nil || br.Results[0].Error != nil ||
		!br.Results[0].Response.Answers[0].Reachable {
		t.Fatalf("batch[0]: %+v", br.Results[0])
	}
	if br.Results[1].Error == nil || br.Results[1].Error.Code != "unknown_engine" {
		t.Fatalf("batch[1]: %+v", br.Results[1])
	}
	if br.Results[2].Response == nil || len(br.Results[2].Response.Answers) != 1 {
		t.Fatalf("batch[2]: %+v", br.Results[2])
	}

	// Batch bounds: empty and oversized bodies are refused whole.
	var ve V1Error
	if status := postV1(t, ts.URL+"/v1/batch", V1BatchRequest{}, &ve); status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", status)
	}
	big := make([]V1Request, maxBatchRequests+1)
	for i := range big {
		big[i] = V1Request{Sources: []int{0}, Targets: []int{1}}
	}
	if status := postV1(t, ts.URL+"/v1/batch", V1BatchRequest{Requests: big}, &ve); status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", status)
	}
}

// TestV1LegCacheSharedAcrossTargets: the leg cache is keyed on (site,
// entry set, engine), so a second query from the same source to a
// different target reuses the first one's legs.
func TestV1LegCacheSharedAcrossTargets(t *testing.T) {
	ts := v1Server(t)
	var first V1QueryResponse
	postV1(t, ts.URL+"/v1/query", V1Request{Sources: []int{0}, Targets: []int{63}, Mode: "cost"}, &first)
	if first.CacheMisses == 0 {
		t.Fatalf("cold query must miss, got %+v", first)
	}
	var second V1QueryResponse
	postV1(t, ts.URL+"/v1/query", V1Request{Sources: []int{0}, Targets: []int{62}, Mode: "cost"}, &second)
	if second.CacheHits == 0 {
		t.Fatalf("same-entry different-target query must hit the leg cache, got %+v", second)
	}
}

// TestFacadeCancellationThroughPools: a canceled context must surface
// as tcq.ErrCanceled through the server-backed facade (its legs never
// start, kernels abort between rounds).
func TestFacadeCancellationThroughPools(t *testing.T) {
	srv, _ := newGridServer(t, 8, 8, 2, Config{CacheCapacity: 64})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := srv.Facade().Query(ctx, tcq.Request{Sources: []int{0}, Targets: []int{63}, Mode: tcq.ModeCost})
	if !errors.Is(err, tcq.ErrCanceled) {
		t.Fatalf("got %v, want tcq.ErrCanceled", err)
	}
}

// TestV1PairBound: a request spanning more pairs than maxQueryPairs is
// refused unless a limit brings the effective work under the bound.
func TestV1PairBound(t *testing.T) {
	ts := v1Server(t)
	wide := make([]int, 70)
	for i := range wide {
		wide[i] = i % 64
	}
	var ve V1Error
	status := postV1(t, ts.URL+"/v1/query", V1Request{Sources: wide, Targets: wide, Mode: "connectivity"}, &ve)
	if status != http.StatusBadRequest || ve.Code != "invalid_request" {
		t.Fatalf("unbounded pair product: status %d code %q", status, ve.Code)
	}
	var vr V1QueryResponse
	status = postV1(t, ts.URL+"/v1/query", V1Request{Sources: wide, Targets: wide, Mode: "connectivity", Limit: 5}, &vr)
	if status != http.StatusOK || len(vr.Answers) != 5 {
		t.Fatalf("limited wide request: status %d, %d answers", status, len(vr.Answers))
	}
}

// TestV1Update exercises the transactional write endpoint: a
// multi-op batch lands atomically in one epoch, reports the
// incremental rebuild (touched fragment rebuilt, the rest shared),
// and the next query reflects it.
func TestV1Update(t *testing.T) {
	ts := v1Server(t)
	var ur V1UpdateResponse
	status := postV1(t, ts.URL+"/v1/update", V1UpdateRequest{Ops: []V1UpdateOp{
		{Op: "insert", Fragment: 0, From: 0, To: 63, Weight: 0.5},
		{Op: "insert", Fragment: 0, From: 0, To: 62, Weight: 0.75},
	}}, &ur)
	if status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, ur)
	}
	if ur.Epoch != 1 || ur.Applied != 2 {
		t.Fatalf("epoch %d applied %d, want 1 and 2", ur.Epoch, ur.Applied)
	}
	if len(ur.RebuiltFragments) == 0 {
		t.Fatalf("no rebuilt fragments reported: %+v", ur)
	}
	var vr V1QueryResponse
	if s := postV1(t, ts.URL+"/v1/query", V1Request{Sources: []int{0}, Targets: []int{63}, Mode: "cost"}, &vr); s != http.StatusOK {
		t.Fatalf("query after update: status %d", s)
	}
	if vr.Answers[0].Cost == nil || math.Abs(*vr.Answers[0].Cost-0.5) > 1e-9 {
		t.Fatalf("cost after batched shortcut = %v, want 0.5", vr.Answers[0].Cost)
	}

	// An atomically refused batch: per-op typed codes, nothing applied.
	var ue V1UpdateError
	status = postV1(t, ts.URL+"/v1/update", V1UpdateRequest{Ops: []V1UpdateOp{
		{Op: "delete", Fragment: 0, From: 0, To: 63, Weight: 0.5},
		{Op: "insert", Fragment: 0, From: 0, To: 999999, Weight: 1},
		{Op: "delete", Fragment: 0, From: 5, To: 6, Weight: 123},
	}}, &ue)
	if status != http.StatusNotFound || ue.Code != "batch_refused" {
		t.Fatalf("refused batch: status %d code %q", status, ue.Code)
	}
	if len(ue.Ops) != 2 || ue.Ops[0].Index != 1 || ue.Ops[0].Code != "unknown_node" ||
		ue.Ops[1].Index != 2 || ue.Ops[1].Code != "edge_not_found" {
		t.Fatalf("per-op errors: %+v", ue.Ops)
	}
	// Atomic: the valid delete of op 0 must NOT have landed.
	var vr2 V1QueryResponse
	postV1(t, ts.URL+"/v1/query", V1Request{Sources: []int{0}, Targets: []int{63}, Mode: "cost"}, &vr2)
	if vr2.Answers[0].Cost == nil || math.Abs(*vr2.Answers[0].Cost-0.5) > 1e-9 {
		t.Fatalf("refused batch partially applied: cost %v, want 0.5", vr2.Answers[0].Cost)
	}

	// Malformed envelopes.
	var ve V1Error
	if s := postV1(t, ts.URL+"/v1/update", V1UpdateRequest{}, &ve); s != http.StatusBadRequest || ve.Code != "invalid_request" {
		t.Fatalf("empty ops: status %d code %q", s, ve.Code)
	}
	var ue2 V1UpdateError
	if s := postV1(t, ts.URL+"/v1/update", V1UpdateRequest{Ops: []V1UpdateOp{{Op: "upsert"}}}, &ue2); s != http.StatusBadRequest || len(ue2.Ops) != 1 {
		t.Fatalf("unknown op verb: status %d %+v", s, ue2)
	}
}

// TestFacadeMutationsShareServerDataset: the server-backed facade
// mutates through the shared dataset, so the server's eager cache
// invalidation and update counters fire for facade-applied batches,
// and QueryPath reads a pinned immutable snapshot safely.
func TestFacadeMutationsShareServerDataset(t *testing.T) {
	srv, _ := newGridServer(t, 6, 6, 2, Config{CacheCapacity: 64})
	ctx := context.Background()
	if _, err := srv.Facade().Apply(ctx, new(tcq.Batch).Insert(0, 0, 1, 0.25)); err != nil {
		t.Fatalf("insert through facade: %v", err)
	}
	if _, err := srv.Facade().Apply(ctx, new(tcq.Batch).Delete(0, 0, 1, 0.25)); err != nil {
		t.Fatalf("delete through facade: %v", err)
	}
	st := srv.Stats()
	if st.Updates != 2 || st.Epoch != 2 {
		t.Fatalf("updates = %d epoch = %d, want 2 and 2 (facade batches must hit the server's dataset)", st.Updates, st.Epoch)
	}
	if st.Cache.Sweeps != 2 {
		t.Fatalf("cache sweeps = %d, want 2 (facade batches must invalidate eagerly)", st.Cache.Sweeps)
	}
	if _, route, err := srv.Facade().QueryPath(ctx, 0, 35); err != nil || len(route.Nodes) == 0 {
		t.Fatalf("QueryPath on server-backed facade: route %v, err %v", route, err)
	}
}
