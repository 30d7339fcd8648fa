package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"testing"
	"time"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// newPair builds a two-node coordinator whose single remote peer "b"
// is the given HTTP server, and returns a site the ring routes to b —
// the shape every transport test needs: a leg that must cross the
// wire.
func newPair(t *testing.T, peerURL string, timeout time.Duration) (*Coordinator, int) {
	t.Helper()
	c, err := New(Config{
		NodeID: "a",
		Peers: []Node{
			{ID: "a", URL: "http://local.invalid:1"},
			{ID: "b", URL: peerURL},
		},
		Timeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 1024; site++ {
		if c.Owner(site).ID == "b" {
			return c, site
		}
	}
	t.Fatal("ring assigned no site to peer b in 1024 tries")
	return nil, 0
}

func legFacts(t *testing.T) *relation.Relation {
	t.Helper()
	rel := relation.New("src", "dst", "cost")
	rel.MustInsert(relation.Tuple{int64(1), int64(2), 3.5})
	rel.MustInsert(relation.Tuple{int64(2), int64(4), 1.0})
	return rel
}

func TestLegResponseRoundTrip(t *testing.T) {
	stats := tc.Stats{Iterations: 2, DerivedTuples: 5, ResultTuples: 2}
	resp := NewLegResponse(7, true, legFacts(t), stats)
	rel, gotStats, err := resp.Facts()
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != stats {
		t.Errorf("stats %+v, want %+v", gotStats, stats)
	}
	if got, want := len(rel.Tuples()), 2; got != want {
		t.Errorf("rebuilt %d tuples, want %d", got, want)
	}
}

// TestLegResponseKeepsLegTable: a remote leg must arrive ready for the
// exit selection. The owner's table crosses the wire in its own order,
// so Facts only verifies it — the rebuilt table is marked sorted by dst
// and selects exactly what the owner's would — and a peer that sends
// another order is sorted, not refused.
func TestLegResponseKeepsLegTable(t *testing.T) {
	rows := []relation.Tuple{
		{int64(1), int64(2), 3.5}, {int64(9), int64(2), 0.5}, {int64(1), int64(4), 1.0},
		{int64(9), int64(4), 2.0}, {int64(1), int64(8), 7.0},
	}
	owner, err := dsa.NewLegTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(NewLegResponse(3, false, owner, tc.Stats{ResultTuples: 5}))
	if err != nil {
		t.Fatal(err)
	}
	var wire LegResponse
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	leg := dsa.Leg{Entry: []graph.NodeID{1, 9}, Exit: []graph.NodeID{4, 9}}
	want, err := dsa.FilterLegFacts(owner, leg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, resp *LegResponse) {
		t.Helper()
		rel, _, err := resp.Facts()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if rel.SortedBy() != 1 {
			t.Fatalf("%s: rebuilt table is not marked sorted by dst", label)
		}
		got, err := dsa.FilterLegFacts(rel, leg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: selected\n%v, the owner's table selects\n%v", label, got, want)
		}
	}
	check("owner's order", &wire)
	check("source-major from the peer", &LegResponse{
		Src:  []int64{1, 1, 1, 9, 9},
		Dst:  []int64{2, 4, 8, 2, 4},
		Cost: []float64{3.5, 1.0, 7.0, 0.5, 2.0},
	})
}

func TestLegResponseBadColumns(t *testing.T) {
	resp := &LegResponse{Src: []int64{1, 2}, Dst: []int64{3}, Cost: []float64{1, 2}}
	if _, _, err := resp.Facts(); !errors.Is(err, ErrBadPeerResponse) {
		t.Errorf("unequal columns: got %v, want ErrBadPeerResponse", err)
	}
}

// TestExecuteLegRoundTrip drives one leg RPC through the real HTTP
// transport end to end and checks the request wire form the peer sees.
func TestExecuteLegRoundTrip(t *testing.T) {
	stats := tc.Stats{Iterations: 3, DerivedTuples: 9, ResultTuples: 2}
	var gotReq LegRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/leg" {
			t.Errorf("peer saw path %s, want /v1/leg", r.URL.Path)
		}
		if err := json.NewDecoder(r.Body).Decode(&gotReq); err != nil {
			t.Error(err)
		}
		json.NewEncoder(w).Encode(NewLegResponse(gotReq.Epoch, true, legFacts(t), stats))
	}))
	defer srv.Close()
	c, site := newPair(t, srv.URL, time.Second)

	rel, gotStats, hit, err := c.ExecuteLeg(context.Background(), site, []graph.NodeID{10, 11}, "dijkstra", 42)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || gotStats != stats || len(rel.Tuples()) != 2 {
		t.Errorf("got hit=%v stats=%+v tuples=%d", hit, gotStats, len(rel.Tuples()))
	}
	if gotReq.Site != site || gotReq.Engine != "dijkstra" || gotReq.Epoch != 42 ||
		len(gotReq.Entry) != 2 || gotReq.Entry[0] != 10 || gotReq.Entry[1] != 11 {
		t.Errorf("peer saw request %+v", gotReq)
	}
}

func TestExecuteLegRefusesLocalSite(t *testing.T) {
	c, err := New(Config{NodeID: "a", Peers: []Node{{ID: "a", URL: "http://h1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.ExecuteLeg(context.Background(), 0, nil, "dijkstra", 1); err == nil {
		t.Error("ExecuteLeg accepted a locally-owned site")
	}
}

// TestPeerDown: a peer that refuses connections is ErrPeerDown — the
// distinct typed failure the caller needs to tell an outage from a
// slow node or a coherence violation.
func TestPeerDown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close() // nothing listens there anymore
	c, site := newPair(t, url, time.Second)
	_, _, _, err := c.ExecuteLeg(context.Background(), site, nil, "dijkstra", 1)
	if !errors.Is(err, ErrPeerDown) {
		t.Errorf("closed peer: got %v, want ErrPeerDown", err)
	}
	if errors.Is(err, ErrPeerTimeout) || errors.Is(err, ErrEpochSkew) {
		t.Errorf("closed peer error %v satisfies an unrelated sentinel", err)
	}
}

// TestPeerTimeout: a peer that answers slower than the RPC budget is
// ErrPeerTimeout, not ErrPeerDown.
func TestPeerTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	// LIFO: unblock the handler before Close waits for it.
	defer srv.Close()
	defer close(block)
	c, site := newPair(t, srv.URL, 50*time.Millisecond)
	_, _, _, err := c.ExecuteLeg(context.Background(), site, nil, "dijkstra", 1)
	if !errors.Is(err, ErrPeerTimeout) {
		t.Errorf("slow peer: got %v, want ErrPeerTimeout", err)
	}
	if errors.Is(err, ErrPeerDown) {
		t.Errorf("slow peer error %v also satisfies ErrPeerDown", err)
	}
}

// TestCallerCanceled: the caller abandoning the query is its own
// cancellation, not a peer fault.
func TestCallerCanceled(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	// LIFO: unblock the handler before Close waits for it.
	defer srv.Close()
	defer close(block)
	c, site := newPair(t, srv.URL, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	_, _, _, err := c.ExecuteLeg(ctx, site, nil, "dijkstra", 1)
	if !errors.Is(err, dsa.ErrCanceled) {
		t.Errorf("canceled caller: got %v, want dsa.ErrCanceled", err)
	}
	if errors.Is(err, ErrPeerDown) || errors.Is(err, ErrPeerTimeout) {
		t.Errorf("canceled caller error %v blames the peer", err)
	}
}

// TestEpochSkewEnvelope: a peer refusing an unservable epoch with the
// 409 envelope maps back to ErrEpochSkew through the wire.
func TestEpochSkewEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(peerError{Error: "cannot serve epoch 3", Code: "epoch_skew"})
	}))
	defer srv.Close()
	c, site := newPair(t, srv.URL, time.Second)
	_, _, _, err := c.ExecuteLeg(context.Background(), site, nil, "dijkstra", 3)
	if !errors.Is(err, ErrEpochSkew) {
		t.Errorf("409 epoch_skew: got %v, want ErrEpochSkew", err)
	}
}

// TestEpochEchoMismatch: a peer that answers 200 but from a different
// generation than asked violates coherence — the response echo check.
func TestEpochEchoMismatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(NewLegResponse(99, false, legFacts(t), tc.Stats{}))
	}))
	defer srv.Close()
	c, site := newPair(t, srv.URL, time.Second)
	_, _, _, err := c.ExecuteLeg(context.Background(), site, nil, "dijkstra", 3)
	if !errors.Is(err, ErrEpochSkew) {
		t.Errorf("wrong-epoch echo: got %v, want ErrEpochSkew", err)
	}
}

// TestMalformedPeerResponses: every way a peer can answer outside the
// protocol is ErrBadPeerResponse, never silent garbage.
func TestMalformedPeerResponses(t *testing.T) {
	cases := map[string]http.HandlerFunc{
		"garbage 200": func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("<html>not json</html>"))
		},
		"unequal fact columns": func(w http.ResponseWriter, r *http.Request) {
			var req LegRequest
			json.NewDecoder(r.Body).Decode(&req)
			json.NewEncoder(w).Encode(&LegResponse{Epoch: req.Epoch, Src: []int64{1}, Dst: []int64{}, Cost: []float64{2}})
		},
		"error without envelope": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
		"unknown error code": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(peerError{Error: "??", Code: "no_such_code"})
		},
	}
	for name, handler := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(handler)
			defer srv.Close()
			c, site := newPair(t, srv.URL, time.Second)
			_, _, _, err := c.ExecuteLeg(context.Background(), site, nil, "dijkstra", 5)
			if !errors.Is(err, ErrBadPeerResponse) {
				t.Errorf("got %v, want ErrBadPeerResponse", err)
			}
		})
	}
}

// TestPeerErrorCodeMapping: typed /v1 refusals survive the wire — the
// peer's unknown_site is the caller's dsa.ErrUnknownSite.
func TestPeerErrorCodeMapping(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(peerError{Error: "no site 77", Code: "unknown_site"})
	}))
	defer srv.Close()
	c, site := newPair(t, srv.URL, time.Second)
	_, _, _, err := c.ExecuteLeg(context.Background(), site, nil, "dijkstra", 1)
	if !errors.Is(err, dsa.ErrUnknownSite) {
		t.Errorf("unknown_site over the wire: got %v, want dsa.ErrUnknownSite", err)
	}
}

// TestForwardUpdate: the fan-out marks requests with the loop guard,
// acks with the peer's landed epoch, and flags divergent acks as
// epoch skew.
func TestForwardUpdate(t *testing.T) {
	var sawForwarded bool
	var gotOps []UpdateOp
	ackEpoch := uint64(2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/update" {
			t.Errorf("fan-out hit %s, want /v1/update", r.URL.Path)
		}
		sawForwarded = r.Header.Get(ForwardedHeader) != ""
		var req UpdateRequest
		json.NewDecoder(r.Body).Decode(&req)
		gotOps = req.Ops
		json.NewEncoder(w).Encode(UpdateAck{Epoch: ackEpoch})
	}))
	defer srv.Close()
	c, _ := newPair(t, srv.URL, time.Second)

	ops := []UpdateOp{{Op: "insert", Fragment: 1, From: 2, To: 3, Weight: 4}}
	acks, err := c.FanOutUpdate(context.Background(), ops, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sawForwarded {
		t.Error("fan-out request lacked the forwarded loop-guard header")
	}
	if len(gotOps) != 1 || gotOps[0] != ops[0] {
		t.Errorf("peer saw ops %+v, want %+v", gotOps, ops)
	}
	if len(acks) != 1 || acks[0] != (PeerAck{Node: "b", Epoch: 2}) {
		t.Errorf("acks %+v", acks)
	}

	// A peer landing on a different epoch than the local apply is a
	// coherence violation.
	ackEpoch = 9
	if _, err := c.FanOutUpdate(context.Background(), ops, 2); !errors.Is(err, ErrEpochSkew) {
		t.Errorf("divergent ack: got %v, want ErrEpochSkew", err)
	}
}

// TestHTTPTransportReusesConnections: the transport must drain response
// bodies before close, or every RPC pays a fresh TCP handshake. The
// JSON decoder stops at the end of the value — the encoder's trailing
// newline (and any padding) stays unread — so without the explicit
// drain the keep-alive connection is torn down. httptrace's GotConn
// reports whether each request rode an existing connection.
func TestHTTPTransportReusesConnections(t *testing.T) {
	facts := legFacts(t)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/leg":
			w.Header().Set("Content-Type", "application/json")
			// Encoder appends '\n'; pad further so a non-draining client
			// provably leaves bytes behind.
			_ = json.NewEncoder(w).Encode(NewLegResponse(0, false, facts, tc.Stats{}))
			w.Write([]byte("    \n"))
		case "/v1/update":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(peerError{Error: "skew", Code: "epoch_skew"})
			w.Write([]byte("    \n"))
		}
	}))
	defer hs.Close()

	tr := NewHTTPTransport(Node{ID: "b", URL: hs.URL}, time.Second)
	conns, reused := 0, 0
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		conns++
		if info.Reused {
			reused++
		}
	}}
	ctx := httptrace.WithClientTrace(context.Background(), trace)

	const rpcs = 6
	for i := 0; i < rpcs; i++ {
		if _, err := tr.ExecuteLeg(ctx, NewLegRequest(0, nil, "dijkstra", 0)); err != nil {
			t.Fatalf("leg %d: %v", i, err)
		}
	}
	// The error path (peerErr) must drain too.
	for i := 0; i < 2; i++ {
		if _, err := tr.ForwardUpdate(ctx, &UpdateRequest{}); !errors.Is(err, ErrEpochSkew) {
			t.Fatalf("update %d: %v, want ErrEpochSkew", i, err)
		}
	}
	if conns != rpcs+2 {
		t.Fatalf("GotConn fired %d times for %d RPCs", conns, rpcs+2)
	}
	if reused != conns-1 {
		t.Errorf("%d of %d RPCs reused a connection, want %d (bodies not drained?)", reused, conns, conns-1)
	}
}
