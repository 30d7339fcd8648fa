package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/tc"
	"repro/pkg/tcq"
)

// testCluster is an in-process multi-node deployment wired over real
// HTTP: every node an identical store, the ring sharding leg work.
type testCluster struct {
	servers []*Server
	https   []*httptest.Server
	ids     []string
}

// newTestCluster deploys n nodes over the same w×h grid fragmented
// into frags sites. mutate, when non-nil, edits each node's cluster
// config before New — the hook fault-injection tests use to swap in
// failing transports.
func newTestCluster(t *testing.T, w, h, frags, n int, mutate func(i int, cfg *cluster.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	var peers []cluster.Node
	for i := 0; i < n; i++ {
		// Unstarted: the listener's address exists now, its handler
		// once the server behind it does — peer URLs must be known
		// before the coordinators that answer on them can be built.
		hs := httptest.NewUnstartedServer(nil)
		t.Cleanup(hs.Close)
		tc.ids = append(tc.ids, string(rune('a'+i)))
		tc.https = append(tc.https, hs)
		peers = append(peers, cluster.Node{ID: tc.ids[i], URL: "http://" + hs.Listener.Addr().String()})
	}
	for i := 0; i < n; i++ {
		cfg := cluster.Config{NodeID: tc.ids[i], Peers: peers, Timeout: 10 * time.Second}
		if mutate != nil {
			mutate(i, &cfg)
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, _ := newGridServer(t, w, h, frags, Config{CacheCapacity: 256, Cluster: coord})
		tc.https[i].Config.Handler = srv.Handler()
		tc.https[i].Start()
		tc.servers = append(tc.servers, srv)
	}
	return tc
}

// TestClusterPlacementExplain: a clustered /v1/query annotates its
// explain block with the per-site node placement, and the entries
// agree with the ring.
func TestClusterPlacementExplain(t *testing.T) {
	tcl := newTestCluster(t, 8, 8, 8, 3, nil)
	var vr V1QueryResponse
	status := postV1(t, tcl.https[0].URL+"/v1/query", V1Request{
		Sources: []int{0}, Targets: []int{63}, Mode: "cost", Engine: "dijkstra",
	}, &vr)
	if status != http.StatusOK {
		t.Fatalf("clustered /v1/query: status %d", status)
	}
	if len(vr.Explain.Placement) == 0 {
		t.Fatal("clustered /v1/query carried no placement explain")
	}
	coord := tcl.servers[0].cluster
	for _, p := range vr.Explain.Placement {
		if want := coord.Owner(p.Site).ID; p.Node != want {
			t.Errorf("placement says site %d on node %s, ring says %s", p.Site, p.Node, want)
		}
	}

	// Single-node deployments must not grow the field.
	ref, _ := newGridServer(t, 8, 8, 4, Config{})
	ts := httptest.NewServer(ref.Handler())
	defer ts.Close()
	var solo V1QueryResponse
	postV1(t, ts.URL+"/v1/query", V1Request{Sources: []int{0}, Targets: []int{63}, Mode: "cost"}, &solo)
	if len(solo.Explain.Placement) != 0 {
		t.Errorf("single-node /v1/query reported placement %+v", solo.Explain.Placement)
	}
}

// TestClusterStats: /stats exposes the membership and the full routing
// table, identically on every node.
func TestClusterStats(t *testing.T) {
	tcl := newTestCluster(t, 6, 6, 4, 3, nil)
	var tables []map[string][]int
	for ni, srv := range tcl.servers {
		st := srv.Stats()
		if st.Cluster == nil {
			t.Fatalf("node %s /stats has no cluster block", tcl.ids[ni])
		}
		if st.Cluster.NodeID != tcl.ids[ni] {
			t.Errorf("node %s reports node_id %s", tcl.ids[ni], st.Cluster.NodeID)
		}
		if len(st.Cluster.Nodes) != 3 {
			t.Errorf("node %s reports %d members", tcl.ids[ni], len(st.Cluster.Nodes))
		}
		tables = append(tables, st.Cluster.Placement)
	}
	for ni, table := range tables[1:] {
		if fmt.Sprint(table) != fmt.Sprint(tables[0]) {
			t.Errorf("node %s placement %v differs from node a's %v", tcl.ids[ni+1], table, tables[0])
		}
	}
}

// TestClusterUpdateFanOut: a /v1/update against one node fans out to
// every peer with a coherent epoch swap, and a remote owner rebuilds its
// fragment. (What every member answers afterwards is internal/oracle's
// cluster views, whose histories arrive through the same fan-out.)
func TestClusterUpdateFanOut(t *testing.T) {
	tcl := newTestCluster(t, 8, 8, 8, 3, nil)

	// Pick a fragment the coordinator does NOT own: the update must
	// rebuild on a remote owner and still be visible everywhere.
	coord := tcl.servers[0].cluster
	frag := -1
	for s := 0; s < 8; s++ {
		if !coord.IsLocal(s) {
			frag = s
			break
		}
	}
	if frag < 0 {
		t.Fatal("ring assigned every site to node a")
	}

	// An edge inside the fragment: linear fragmentation over the 64-node
	// grid puts nodes [frag*8, frag*8+8) in fragment frag.
	from, to := frag*8, frag*8+1
	op := V1UpdateOp{Op: "insert", Fragment: frag, From: from, To: to, Weight: 0.25}
	var ur V1UpdateResponse
	status := postV1(t, tcl.https[0].URL+"/v1/update", V1UpdateRequest{Ops: []V1UpdateOp{op}}, &ur)
	if status != http.StatusOK {
		t.Fatalf("clustered /v1/update: status %d: %+v", status, ur)
	}
	if ur.Epoch != 1 || ur.Applied != 1 {
		t.Fatalf("update answered epoch %d applied %d, want 1/1", ur.Epoch, ur.Applied)
	}
	if len(ur.Cluster) != 2 {
		t.Fatalf("update acked by %d peers, want 2: %+v", len(ur.Cluster), ur.Cluster)
	}
	for _, ack := range ur.Cluster {
		if ack.Epoch != 1 {
			t.Errorf("peer %s acked epoch %d, want 1", ack.Node, ack.Epoch)
		}
	}
	for ni, srv := range tcl.servers {
		if got := srv.Dataset().Epoch(); got != 1 {
			t.Errorf("node %s at epoch %d after fan-out, want 1", tcl.ids[ni], got)
		}
	}
}

// TestClusterForwardedLoopGuard: a request already marked forwarded is
// applied locally and not fanned out again — no acks, no loops.
func TestClusterForwardedLoopGuard(t *testing.T) {
	tcl := newTestCluster(t, 6, 6, 4, 2, nil)
	body, _ := json.Marshal(V1UpdateRequest{Ops: []V1UpdateOp{{Op: "insert", Fragment: 0, From: 0, To: 1, Weight: 9}}})
	req, _ := http.NewRequest(http.MethodPost, tcl.https[0].URL+"/v1/update", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ur V1UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(ur.Cluster) != 0 {
		t.Fatalf("forwarded update: status %d, acks %+v (want 200 and none)", resp.StatusCode, ur.Cluster)
	}
	if got := tcl.servers[0].Dataset().Epoch(); got != 1 {
		t.Errorf("forwarded update left node a at epoch %d, want 1", got)
	}
	if got := tcl.servers[1].Dataset().Epoch(); got != 0 {
		t.Errorf("forwarded update leaked to node b (epoch %d, want 0)", got)
	}
}

// TestV1LegWireMatchesRelation: /v1/leg answers through the local leg
// path. A request with no exit set gets the leg's whole table, and for
// every engine its body is byte for byte the one the relation of
// ExecuteLegFullCtx flattens to, but for the cache verdict and stats
// the site-table read reports — the wire stays what it was when leg
// tables were relations. The leg is entered through a disconnection
// set and its site's border table is built, so every request reads it
// and builds nothing. The same leg with its exits gets just their
// facts, from which the coordinator builds the block the kernel's
// table selects, cell for cell.
func TestV1LegWireMatchesRelation(t *testing.T) {
	tcl := newTestCluster(t, 6, 6, 4, 2, nil)
	srv := tcl.servers[0]
	st := srv.Dataset().Snapshot().Store()
	nodes := st.Fragmentation().Nodes()
	plan, err := st.NewPlan(nodes[0], nodes[len(nodes)-1])
	if err != nil || len(plan.Legs) < 2 {
		t.Fatalf("plan %+v, err %v; want a leg entered through a disconnection set", plan, err)
	}
	leg := plan.Legs[1]
	for _, engine := range dsa.Engines() {
		if _, built, err := st.BorderBlockCtx(context.Background(), leg, engine); err != nil || !built {
			t.Fatalf("%v: built %v, err %v; want this read to build the site's table", engine, built, err)
		}
	}
	ctx := context.Background()
	post := func(req *cluster.LegRequest) []byte {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(tcl.https[0].URL+"/v1/leg", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", raw, resp.StatusCode, err)
		}
		return bytes.TrimSpace(body.Bytes())
	}
	before := srv.Stats().SiteTables
	for _, engine := range dsa.Engines() {
		body := post(cluster.NewLegRequest(leg.SiteID, leg.Entry, engine.String(), 0))
		var got cluster.LegResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		rel, _, err := st.ExecuteLegFullCtx(ctx, leg.SiteID, leg.Entry, engine)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := got.Facts()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(cluster.NewLegResponse(0, got.CacheHit, rel, stats))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%v: /v1/leg body (%d bytes) differs from the relation's (%d bytes)", engine, len(body), len(want))
		}
		if rel.Len() == 0 || !got.CacheHit {
			t.Errorf("%v: %d facts, cache hit %v; want the facts of a built table", engine, rel.Len(), got.CacheHit)
		}
	}
	if after := srv.Stats().SiteTables; after.Reads != before.Reads+uint64(len(dsa.Engines())) || after.Builds != before.Builds {
		t.Errorf("site tables went %+v → %+v; want one read per request and no build", before, after)
	}
	exit := make([]int64, len(leg.Exit))
	for i, x := range leg.Exit {
		exit[i] = int64(x)
	}
	for _, engine := range dsa.Engines() {
		req := cluster.NewLegRequest(leg.SiteID, leg.Entry, engine.String(), 0)
		req.Exit = exit
		var resp cluster.LegResponse
		if err := json.Unmarshal(post(req), &resp); err != nil {
			t.Fatal(err)
		}
		shipped, _, err := resp.Block(leg)
		if err != nil {
			t.Fatal(err)
		}
		table, _, err := st.ExecuteLegTableCtx(ctx, leg, engine)
		if err != nil {
			t.Fatal(err)
		}
		got, want := shipped.Matrix(), dsa.SelectExits(table, leg).Matrix()
		if len(resp.Src) != want.Len() || got.Len() != want.Len() || !slices.Equal(got.Cols, want.Cols) {
			t.Fatalf("%v: %d facts shipped, block of %d facts by %v; want %d facts by %v", engine, len(resp.Src), got.Len(), got.Cols, want.Len(), want.Cols)
		}
		for r, src := range want.Rows {
			g := slices.Index(got.Rows, src)
			for c, x := range want.Cols {
				w, v := want.Cost[r*len(want.Cols)+c], math.Inf(1)
				if g >= 0 {
					v = got.Cost[g*len(got.Cols)+c]
				}
				if math.Float64bits(v) != math.Float64bits(w) {
					t.Errorf("%v: cell (%d, %d) is %v, the kernel's table has %v", engine, src, x, v, w)
				}
			}
		}
	}
	if after := srv.Stats().SiteTables; after.Reads != before.Reads+2*uint64(len(dsa.Engines())) || after.Builds != before.Builds {
		t.Errorf("site tables went %+v → %+v; want one read per request and no build", before, after)
	}
}

// TestV1LegEndpoint covers the peer endpoint's contract directly: a
// servable epoch answers facts, an unservable one answers 409
// epoch_skew, and malformed requests get typed 4xx refusals.
func TestV1LegEndpoint(t *testing.T) {
	tcl := newTestCluster(t, 6, 6, 4, 2, nil)
	url := tcl.https[0].URL + "/v1/leg"

	var leg cluster.LegResponse
	status := postV1(t, url, cluster.NewLegRequest(0, []graph.NodeID{0}, "dijkstra", 0), &leg)
	if status != http.StatusOK {
		t.Fatalf("/v1/leg at current epoch: status %d", status)
	}
	if leg.Epoch != 0 || len(leg.Src) == 0 {
		t.Errorf("/v1/leg answered epoch %d with %d facts", leg.Epoch, len(leg.Src))
	}
	if len(leg.Src) != len(leg.Dst) || len(leg.Src) != len(leg.Cost) {
		t.Errorf("/v1/leg columns of unequal length: %d/%d/%d", len(leg.Src), len(leg.Dst), len(leg.Cost))
	}
	if work := tcl.servers[0].Stats().Site[0]; work.Legs != 1 || work.BusyNS <= 0 {
		t.Errorf("owner accounted the peer-served leg as %+v, want 1 leg with busy time", work)
	}

	var ve V1Error
	status = postV1(t, url, cluster.NewLegRequest(0, []graph.NodeID{0}, "dijkstra", 99), &ve)
	if status != http.StatusConflict || ve.Code != "epoch_skew" {
		t.Errorf("/v1/leg at future epoch: status %d code %q, want 409 epoch_skew", status, ve.Code)
	}

	status = postV1(t, url, cluster.NewLegRequest(0, nil, "warp", 0), &ve)
	if status != http.StatusBadRequest || ve.Code != "unknown_engine" {
		t.Errorf("/v1/leg bad engine: status %d code %q, want 400 unknown_engine", status, ve.Code)
	}

	for _, site := range []int{77, -1} {
		status = postV1(t, url, cluster.NewLegRequest(site, []graph.NodeID{0}, "dijkstra", 0), &ve)
		if status != http.StatusNotFound || ve.Code != "unknown_site" {
			t.Errorf("/v1/leg site %d: status %d code %q, want 404 unknown_site", site, status, ve.Code)
		}
	}

	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/leg malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestLegAccountingOneRule: however a leg comes to run on this node —
// a query's leg on a site it owns, the degraded-mode fallback for a
// site whose owner a FaultTransport script keeps down, a peer's /v1/leg
// — the site is charged one leg and the leg's wall time, and nothing
// else is; tc_legs_local_total counts owned and peer-served legs,
// tc_cluster_leg_fallback_total the fallbacks.
func TestLegAccountingOneRule(t *testing.T) {
	tcl := newTestCluster(t, 24, 4, 8, 2, func(i int, cfg *cluster.Config) {
		cfg.Retry.Attempts = 1
		cfg.NewTransport = func(n cluster.Node) cluster.Transport {
			return cluster.NewFaultTransport(cluster.NewHTTPTransport(n, time.Second), n.ID,
				cluster.FaultScript{"b": {{Action: cluster.FaultDown, Count: -1}}})
		}
	})
	a := tcl.servers[0]
	fr := a.Dataset().Snapshot().Store().Fragmentation()
	// interior returns two nodes only the site's fragment holds: a query
	// between them is planned as one leg on that site.
	interior := func(site int) (graph.NodeID, graph.NodeID) {
		var in []graph.NodeID
		for _, n := range fr.Fragment(site).Nodes() {
			if len(fr.FragmentsOf(n)) == 1 {
				in = append(in, n)
			}
		}
		if len(in) < 2 {
			t.Fatalf("site %d has %d interior nodes, need 2", site, len(in))
		}
		return in[0], in[len(in)-1]
	}
	owned, remote := -1, -1
	for site := 0; site < fr.NumFragments(); site++ {
		if a.cluster.IsLocal(site) {
			owned = site
		} else {
			remote = site
		}
	}
	if owned < 0 || remote < 0 {
		t.Fatalf("ring dealt node a owned site %d, remote site %d; need both", owned, remote)
	}
	query := func(site int) func(*testing.T) time.Duration {
		return func(t *testing.T) time.Duration {
			src, dst := interior(site)
			res, _, err := runPair(a, src, dst, dsa.EngineDijkstra, tcq.ModeCost)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.PerSite) != 1 || res.PerSite[site].Legs != 1 {
				t.Fatalf("pair %d→%d ran %+v, want one leg on site %d", src, dst, res.PerSite, site)
			}
			return res.PerSite[site].Elapsed
		}
	}
	cases := []struct {
		name                string
		site                int
		run                 func(*testing.T) time.Duration // the leg's Took, 0 when the caller cannot see it
		wantLocal, wantFall float64
	}{
		{"query leg on an owned site", owned, query(owned), 1, 0},
		{"fallback leg for a down owner", remote, query(remote), 0, 1},
		{"peer-served /v1/leg", owned, func(t *testing.T) time.Duration {
			src, _ := interior(owned)
			var leg cluster.LegResponse
			if status := postV1(t, tcl.https[0].URL+"/v1/leg", cluster.NewLegRequest(owned, []graph.NodeID{src}, "dense", 0), &leg); status != http.StatusOK {
				t.Fatalf("/v1/leg: status %d", status)
			}
			return 0
		}, 1, 0},
	}
	const localSeries, fallSeries = "tc_legs_local_total", `tc_cluster_leg_fallback_total{peer="b"}`
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			before := a.Stats()
			took := tt.run(t)
			after := a.Stats()
			for site := range after.Site {
				legs := after.Site[site].Legs - before.Site[site].Legs
				busy := after.Site[site].BusyNS - before.Site[site].BusyNS
				switch {
				case site != tt.site:
					if legs != 0 || busy != 0 {
						t.Errorf("bystander site %d charged %d legs, %d ns", site, legs, busy)
					}
				case legs != 1 || busy <= 0 || took > 0 && busy != int64(took):
					t.Errorf("site %d charged %d legs and %d ns for one leg that took %d ns", site, legs, busy, took)
				}
			}
			if got := after.Metrics[localSeries] - before.Metrics[localSeries]; got != tt.wantLocal {
				t.Errorf("%s advanced by %v, want %v", localSeries, got, tt.wantLocal)
			}
			if got := after.Metrics[fallSeries] - before.Metrics[fallSeries]; got != tt.wantFall {
				t.Errorf("%s advanced by %v, want %v", fallSeries, got, tt.wantFall)
			}
		})
	}
}

// faultTransport stands in for a peer with one scripted behaviour.
type faultTransport struct {
	err error                                          // non-nil: every RPC fails with it
	leg func(*cluster.LegRequest) *cluster.LegResponse // non-nil: scripted 200
}

func (f *faultTransport) ExecuteLeg(ctx context.Context, req *cluster.LegRequest) (*cluster.LegResponse, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.leg(req), nil
}

func (f *faultTransport) ForwardUpdate(ctx context.Context, req *cluster.UpdateRequest) (*cluster.UpdateAck, error) {
	if f.err != nil {
		return nil, f.err
	}
	return &cluster.UpdateAck{}, nil
}

// emptyLeg is a syntactically valid scripted leg response.
func emptyLeg(epoch uint64) *cluster.LegResponse {
	return cluster.NewLegTableResponse(epoch, false, &tc.CostMatrix{}, tc.Stats{})
}

// TestClusterFailureTaxonomy: protocol-level peer failures — the kinds
// degraded fallback must NOT mask — surface as their own typed tcq
// error through the whole stack: the library error satisfies
// errors.Is, and the HTTP surface answers the matching status and
// stable code. (Transport-level failures no longer surface on the read
// path at all: they fall back to local execution — see
// TestClusterDegradedFallback.)
func TestClusterFailureTaxonomy(t *testing.T) {
	cases := []struct {
		name       string
		transport  *faultTransport
		sentinel   error
		wantStatus int
		wantCode   string
	}{
		{"epoch skew", &faultTransport{leg: func(r *cluster.LegRequest) *cluster.LegResponse { return emptyLeg(r.Epoch + 5) }},
			tcq.ErrEpochSkew, http.StatusConflict, "epoch_skew"},
		{"malformed leg", &faultTransport{leg: func(r *cluster.LegRequest) *cluster.LegResponse {
			bad := emptyLeg(r.Epoch)
			bad.Src = []int64{1} // columns now unequal
			return bad
		}}, tcq.ErrBadPeerResponse, http.StatusBadGateway, "bad_peer_response"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			tcl := newTestCluster(t, 8, 8, 8, 2, func(i int, cfg *cluster.Config) {
				cfg.NewTransport = func(cluster.Node) cluster.Transport { return tt.transport }
			})
			srv := tcl.servers[0]
			// Corner to corner crosses every fragment, so some leg lands
			// on the faulty peer whatever the ring dealt.
			_, _, err := runPair(srv, 0, 63, dsa.EngineDijkstra, tcq.ModeCost)
			if !errors.Is(err, tt.sentinel) {
				t.Fatalf("library error %v, want %v", err, tt.sentinel)
			}
			var ve V1Error
			status := postV1(t, tcl.https[0].URL+"/v1/query",
				V1Request{Sources: []int{0}, Targets: []int{63}, Mode: "cost", Engine: "dijkstra"}, &ve)
			if status != tt.wantStatus || ve.Code != tt.wantCode {
				t.Errorf("HTTP surface: status %d code %q, want %d %q", status, ve.Code, tt.wantStatus, tt.wantCode)
			}
		})
	}
}

// TestWireErrorRoundTrip: every row of the /v1 error vocabulary
// survives the wire — the envelope this server writes for the
// sentinel, read back by the cluster transport, satisfies errors.Is for
// the same sentinel.
func TestWireErrorRoundTrip(t *testing.T) {
	for _, row := range cluster.WireErrors {
		t.Run(row.Code, func(t *testing.T) {
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				writeV1Error(w, fmt.Errorf("planted: %w", row.Err))
			}))
			defer peer.Close()
			tr := cluster.NewHTTPTransport(cluster.Node{ID: "peer", URL: peer.URL}, time.Second)
			_, err := tr.ExecuteLeg(context.Background(), cluster.NewLegRequest(0, nil, "dijkstra", 0))
			if !errors.Is(err, row.Err) {
				t.Errorf("%s envelope read back as %v, want %v", row.Code, err, row.Err)
			}
		})
	}
}

// TestClusterDegradedFallback: with a peer unreachable (down or timing
// out), queries whose legs route to it succeed anyway — the
// coordinator executes those legs locally against its own pinned
// snapshot — with the degradation fully visible: QueryStats and the
// /v1 placement explain name the fallback sites, the fallback counter
// advances, the breaker trips, and /readyz + /stats report degraded.
func TestClusterDegradedFallback(t *testing.T) {
	faults := []struct {
		name string
		err  error
	}{
		{"peer down", fmt.Errorf("dial: %w", cluster.ErrPeerDown)},
		{"peer timeout", fmt.Errorf("deadline: %w", cluster.ErrPeerTimeout)},
	}
	for _, tt := range faults {
		t.Run(tt.name, func(t *testing.T) {
			tcl := newTestCluster(t, 8, 8, 8, 2, func(i int, cfg *cluster.Config) {
				cfg.NewTransport = func(cluster.Node) cluster.Transport { return &faultTransport{err: tt.err} }
				cfg.Retry.Attempts = 1           // no retries: each failure is terminal
				cfg.Breaker.FailureThreshold = 1 // trip on the first failure
			})
			srv := tcl.servers[0]
			ref, _ := newGridServer(t, 8, 8, 8, Config{CacheCapacity: 256})

			// Corner to corner crosses every fragment; legs owned by the
			// dead peer must fall back and the answer must stay exact.
			want, _, err := runPair(ref, 0, 63, dsa.EngineDijkstra, tcq.ModeCost)
			if err != nil {
				t.Fatal(err)
			}
			got, qs, err := runPair(srv, 0, 63, dsa.EngineDijkstra, tcq.ModeCost)
			if err != nil {
				t.Fatalf("degraded query failed instead of falling back: %v", err)
			}
			if got.Reachable != want.Reachable || math.Abs(got.Cost-want.Cost) > 1e-9 {
				t.Errorf("degraded answer (%v, %v), single-node (%v, %v)",
					got.Reachable, got.Cost, want.Reachable, want.Cost)
			}
			if len(qs.FallbackSites) == 0 {
				t.Error("degraded query reported no fallback sites")
			}
			coord := srv.cluster
			for _, site := range qs.FallbackSites {
				if coord.IsLocal(site) {
					t.Errorf("locally owned site %d reported as fallback", site)
				}
			}

			// The /v1 surface: the query succeeds and its placement explain
			// marks exactly the remote sites as fallback.
			var vr V1QueryResponse
			status := postV1(t, tcl.https[0].URL+"/v1/query",
				V1Request{Sources: []int{0}, Targets: []int{63}, Mode: "cost", Engine: "dijkstra"}, &vr)
			if status != http.StatusOK {
				t.Fatalf("degraded /v1/query: status %d", status)
			}
			sawFallback := false
			for _, p := range vr.Explain.Placement {
				if remote := !coord.IsLocal(p.Site); p.Fallback != remote {
					t.Errorf("placement site %d (remote %v) fallback %v", p.Site, remote, p.Fallback)
				}
				sawFallback = sawFallback || p.Fallback
			}
			if !sawFallback {
				t.Error("degraded /v1/query placement carried no fallback annotation")
			}

			// Degradation is observable: breaker open in /stats, readyz
			// degraded, fallback counter advanced.
			st := srv.Stats()
			if st.Cluster == nil || st.Cluster.Breakers["b"] != "open" {
				t.Errorf("stats breakers = %+v, want b open", st.Cluster.Breakers)
			}
			resp, err := http.Get(tcl.https[0].URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			var rz ReadyzResponse
			if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || rz.Status != "degraded" || rz.Breakers["b"] != "open" {
				t.Errorf("readyz = %d %+v, want 200 degraded with b open", resp.StatusCode, rz)
			}
			fallbacks := 0.0
			for k, v := range srv.metrics.reg.Snapshot() {
				if strings.HasPrefix(k, "tc_cluster_leg_fallback_total") {
					fallbacks += v
				}
			}
			if fallbacks == 0 {
				t.Error("tc_cluster_leg_fallback_total did not advance")
			}
		})
	}
}

// TestClusterUpdateNeverFallsBack: write fan-out keeps PR 7's
// single-shot coherence semantics — an unreachable peer fails the
// update with a typed 502, it is not retried and never "falls back"
// (that would silently diverge the membership).
func TestClusterUpdateNeverFallsBack(t *testing.T) {
	tcl := newTestCluster(t, 8, 8, 8, 2, func(i int, cfg *cluster.Config) {
		cfg.NewTransport = func(cluster.Node) cluster.Transport {
			return &faultTransport{err: fmt.Errorf("dial: %w", cluster.ErrPeerDown)}
		}
	})
	var ve V1Error
	status := postV1(t, tcl.https[0].URL+"/v1/update",
		V1UpdateRequest{Ops: []V1UpdateOp{{Op: "insert", Fragment: 0, From: 0, To: 1, Weight: 2}}}, &ve)
	if status != http.StatusBadGateway || ve.Code != "peer_down" {
		t.Errorf("update with dead peer: status %d code %q, want 502 peer_down", status, ve.Code)
	}
}

// TestReadyzSingleNode: without a cluster, readyz is a plain ok and
// carries no breaker table.
func TestReadyzSingleNode(t *testing.T) {
	srv, _ := newGridServer(t, 6, 6, 4, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rz ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rz.Status != "ok" || len(rz.Breakers) != 0 {
		t.Errorf("single-node readyz = %d %+v, want 200 ok without breakers", resp.StatusCode, rz)
	}
}

// TestClusterConcurrentQueriesAndFanOut is the cluster race test:
// queries from every coordinator interleave with /v1/update fan-outs
// while the epoch history keeps superseded generations servable. A
// reader overtaken by more than the history depth may see a typed
// ErrEpochSkew; anything else is a bug, and most reads must succeed.
// Run with -race (CI always does).
func TestClusterConcurrentQueriesAndFanOut(t *testing.T) {
	tcl := newTestCluster(t, 6, 6, 4, 3, nil)
	const readers = 3
	const iters = 20
	var wg sync.WaitGroup
	var ok atomic.Int64

	for ni := range tcl.servers {
		wg.Add(1)
		go func(ni int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ni)))
			for i := 0; i < iters; i++ {
				src := graph.NodeID(rng.Intn(36))
				dst := graph.NodeID(rng.Intn(36))
				_, _, err := runPair(tcl.servers[ni], src, dst, dsa.EngineDijkstra, tcq.ModeCost)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, tcq.ErrEpochSkew):
					// Tolerated: the writer lapped this reader's pinned epoch.
				default:
					t.Errorf("node %s reader: %v", tcl.ids[ni], err)
					return
				}
			}
		}(ni)
	}

	// One writer fanning updates out through the real HTTP path. The
	// deployment model is single-writer, so these are sequential.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			op := V1UpdateOp{Op: "insert", Fragment: 1, From: 9, To: 10, Weight: 1e9}
			if i%2 == 1 {
				op.Op = "delete"
			}
			var ur V1UpdateResponse
			status := postV1(t, tcl.https[0].URL+"/v1/update", V1UpdateRequest{Ops: []V1UpdateOp{op}}, &ur)
			if status != http.StatusOK {
				t.Errorf("writer: /v1/update %d: status %d", i, status)
				return
			}
			if len(ur.Cluster) != 2 {
				t.Errorf("writer: update %d acked by %d peers, want 2", i, len(ur.Cluster))
				return
			}
		}
	}()

	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no cluster read succeeded while updates fanned out")
	}
	for ni, srv := range tcl.servers {
		if got := srv.Dataset().Epoch(); got != 8 {
			t.Errorf("node %s finished at epoch %d, want 8", tcl.ids[ni], got)
		}
	}
	_ = readers
}
