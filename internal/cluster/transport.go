package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// ForwardedHeader marks a /v1/update request as a coordinator fan-out:
// the receiving peer applies the batch locally and must NOT forward it
// again (the loop guard of the write path).
const ForwardedHeader = "X-TC-Forwarded"

// maxErrorBody bounds how much of a peer error response is read while
// looking for its typed error envelope.
const maxErrorBody = 1 << 20

// Transport executes cluster RPCs against one peer node. The one
// production implementation is HTTPTransport; tests substitute
// in-process fakes to exercise the error taxonomy without sockets.
type Transport interface {
	// ExecuteLeg runs one leg computation on the peer at the request's
	// pinned epoch.
	ExecuteLeg(ctx context.Context, req *LegRequest) (*LegResponse, error)
	// ForwardUpdate applies an update batch on the peer (marked
	// forwarded, so the peer does not fan it out again) and returns the
	// epoch the peer landed on.
	ForwardUpdate(ctx context.Context, req *UpdateRequest) (*UpdateAck, error)
}

// LegRequest is the wire form of one remote leg execution: the
// memoizable (site, entry set, engine) triple plus the coordinator's
// pinned epoch — the coherence token the peer must match.
type LegRequest struct {
	Site   int     `json:"site"`
	Entry  []int64 `json:"entry"`
	Engine string  `json:"engine"`
	Epoch  uint64  `json:"epoch"`
}

// EntryNodes converts the wire entry set back to node IDs.
func (r *LegRequest) EntryNodes() []graph.NodeID {
	out := make([]graph.NodeID, len(r.Entry))
	for i, n := range r.Entry {
		out[i] = graph.NodeID(n)
	}
	return out
}

// NewLegRequest builds the wire form from an executor's leg.
func NewLegRequest(site int, entry []graph.NodeID, engine string, epoch uint64) *LegRequest {
	wire := make([]int64, len(entry))
	for i, n := range entry {
		wire[i] = int64(n)
	}
	return &LegRequest{Site: site, Entry: wire, Engine: engine, Epoch: epoch}
}

// LegResponse is the wire form of an executed leg: the full
// (src, dst, cost) fact relation in columnar layout — the paper's
// complementary-cost table, the only payload that crosses the wire —
// plus the peer's cache verdict and fixpoint stats.
type LegResponse struct {
	// Epoch echoes the generation the facts were computed on.
	Epoch uint64 `json:"epoch"`
	// CacheHit reports the peer answered from its leg cache.
	CacheHit bool `json:"cache_hit"`
	// Src, Dst, Cost are the fact columns; all three must have equal
	// length.
	Src  []int64   `json:"src"`
	Dst  []int64   `json:"dst"`
	Cost []float64 `json:"cost"`
	// Iterations, DerivedTuples, ResultTuples are the peer's tc.Stats.
	Iterations    int `json:"iterations"`
	DerivedTuples int `json:"derived_tuples"`
	ResultTuples  int `json:"result_tuples"`
}

// NewLegResponse flattens an executed leg relation onto the wire.
func NewLegResponse(epoch uint64, hit bool, rel *relation.Relation, stats tc.Stats) *LegResponse {
	tuples := rel.Tuples()
	resp := &LegResponse{
		Epoch:         epoch,
		CacheHit:      hit,
		Src:           make([]int64, len(tuples)),
		Dst:           make([]int64, len(tuples)),
		Cost:          make([]float64, len(tuples)),
		Iterations:    stats.Iterations,
		DerivedTuples: stats.DerivedTuples,
		ResultTuples:  stats.ResultTuples,
	}
	for i, t := range tuples {
		resp.Src[i] = t[0].(int64)
		resp.Dst[i] = t[1].(int64)
		resp.Cost[i] = t[2].(float64)
	}
	return resp
}

// Facts rebuilds the leg table. NewLegResponse flattens the owner's
// table in its own order — sorted by dst — so dsa.NewLegTable only
// verifies that here; a peer that sends another order is sorted, not
// refused. The rows share one backing array. Column-length mismatches
// are a protocol violation and return ErrBadPeerResponse.
func (r *LegResponse) Facts() (*relation.Relation, tc.Stats, error) {
	if len(r.Src) != len(r.Dst) || len(r.Src) != len(r.Cost) {
		return nil, tc.Stats{}, fmt.Errorf("cluster: %w: fact columns of unequal length (%d src, %d dst, %d cost)",
			ErrBadPeerResponse, len(r.Src), len(r.Dst), len(r.Cost))
	}
	rows := make([]relation.Tuple, len(r.Src))
	cells := make([]relation.Value, 3*len(rows))
	for i := range rows {
		rows[i] = cells[3*i : 3*i+3 : 3*i+3]
		rows[i][0], rows[i][1], rows[i][2] = r.Src[i], r.Dst[i], r.Cost[i]
	}
	rel, err := dsa.NewLegTable(rows)
	if err != nil {
		return nil, tc.Stats{}, fmt.Errorf("cluster: %w: %v", ErrBadPeerResponse, err)
	}
	stats := tc.Stats{Iterations: r.Iterations, DerivedTuples: r.DerivedTuples, ResultTuples: r.ResultTuples}
	return rel, stats, nil
}

// UpdateOp is one typed mutation of an update transaction. It IS the
// /v1/update wire op (server.V1UpdateOp aliases it), so forwarding is a
// re-serialisation of the same transaction.
type UpdateOp struct {
	// Op is "insert" or "delete".
	Op string `json:"op"`
	// Fragment is the fragment whose edge set changes.
	Fragment int `json:"fragment"`
	// From and To are the edge endpoints (existing node IDs).
	From int `json:"from"`
	To   int `json:"to"`
	// Weight is the edge weight; on delete the (from, to, weight)
	// triple must match a stored fragment edge exactly.
	Weight float64 `json:"weight"`
}

// UpdateRequest is the transaction body, from a client and fanned out.
type UpdateRequest struct {
	Ops []UpdateOp `json:"ops"`
}

// UpdateAck is a peer's answer to a forwarded update: the epoch it
// landed on. Coherence requires every peer to ack the same epoch.
type UpdateAck struct {
	Epoch uint64 `json:"epoch"`
}

// peerError is the /v1 error envelope as read off a peer.
type peerError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// codeToErr maps the stable /v1 error codes a peer may answer with
// back onto this side's typed sentinels, so an error that crossed the
// wire still satisfies the same errors.Is checks as a local one.
var codeToErr = map[string]error{
	"epoch_skew":       ErrEpochSkew,
	"peer_down":        ErrPeerDown,
	"peer_timeout":     ErrPeerTimeout,
	"unknown_site":     dsa.ErrUnknownSite,
	"unknown_node":     dsa.ErrUnknownNode,
	"unknown_engine":   dsa.ErrUnknownEngine,
	"engine_mismatch":  dsa.ErrEngineMismatch,
	"problem_mismatch": dsa.ErrProblemMismatch,
	"negative_weight":  dsa.ErrNegativeWeight,
	"edge_not_found":   dsa.ErrEdgeNotFound,
	"empty_fragment":   dsa.ErrEmptyFragment,
	"canceled":         dsa.ErrCanceled,
}

// HTTPTransport speaks the /v1 JSON protocol to one peer tcserver:
// POST {peer}/v1/leg for leg execution, POST {peer}/v1/update (with
// ForwardedHeader set) for update fan-out.
type HTTPTransport struct {
	node   Node
	client *http.Client
}

// NewHTTPTransport builds the production transport for one peer. The
// timeout bounds each RPC end to end (dial, write, read).
func NewHTTPTransport(node Node, timeout time.Duration) *HTTPTransport {
	return &HTTPTransport{node: node, client: &http.Client{Timeout: timeout}}
}

// ExecuteLeg implements Transport.
func (t *HTTPTransport) ExecuteLeg(ctx context.Context, req *LegRequest) (*LegResponse, error) {
	var resp LegResponse
	if err := t.post(ctx, "/v1/leg", req, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ForwardUpdate implements Transport.
func (t *HTTPTransport) ForwardUpdate(ctx context.Context, req *UpdateRequest) (*UpdateAck, error) {
	var ack UpdateAck
	hdr := http.Header{ForwardedHeader: []string{"1"}}
	if err := t.post(ctx, "/v1/update", req, hdr, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// post runs one JSON round trip and maps every failure mode onto the
// typed taxonomy: transport errors become ErrPeerDown/ErrPeerTimeout,
// peer error envelopes are translated back through their stable codes,
// and anything outside the protocol becomes ErrBadPeerResponse.
func (t *HTTPTransport) post(ctx context.Context, path string, body any, hdr http.Header, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: peer %s: encode %s request: %w", t.node.ID, path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.node.URL+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("cluster: peer %s: %w", t.node.ID, err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return t.classify(path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return t.peerErr(path, resp)
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	// Drain whatever the decoder left (it stops at the end of the JSON
	// value): a body closed with bytes unread kills the keep-alive
	// connection, and every subsequent RPC pays a fresh TCP handshake.
	io.Copy(io.Discard, resp.Body)
	if err != nil {
		return fmt.Errorf("cluster: %w: peer %s %s: undecodable 200 body: %v", ErrBadPeerResponse, t.node.ID, path, err)
	}
	return nil
}

// classify maps a round-trip failure onto the typed taxonomy. The
// caller's own cancellation stays ErrCanceled (the query was abandoned,
// the peer is not at fault); deadline expiry — the RPC budget or a
// net-level timeout — is ErrPeerTimeout; everything else that kept the
// response from arriving is ErrPeerDown.
func (t *HTTPTransport) classify(path string, err error) error {
	switch {
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("cluster: peer %s %s: %w (%w)", t.node.ID, path, dsa.ErrCanceled, err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("cluster: %w: peer %s %s: %v", ErrPeerTimeout, t.node.ID, path, err)
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return fmt.Errorf("cluster: %w: peer %s %s: %v", ErrPeerTimeout, t.node.ID, path, err)
	}
	return fmt.Errorf("cluster: %w: peer %s %s: %v", ErrPeerDown, t.node.ID, path, err)
}

// peerErr translates a non-200 peer response back into a typed error
// via the envelope's stable code.
func (t *HTTPTransport) peerErr(path string, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	// Drain past the limit so the connection stays reusable (see post).
	io.Copy(io.Discard, resp.Body)
	var env peerError
	if err := json.Unmarshal(raw, &env); err != nil || env.Code == "" {
		return fmt.Errorf("cluster: %w: peer %s %s answered HTTP %d outside the protocol: %.200s",
			ErrBadPeerResponse, t.node.ID, path, resp.StatusCode, raw)
	}
	sentinel, ok := codeToErr[env.Code]
	if !ok {
		return fmt.Errorf("cluster: %w: peer %s %s refused with unknown code %q: %s",
			ErrBadPeerResponse, t.node.ID, path, env.Code, env.Error)
	}
	return fmt.Errorf("cluster: %w: peer %s %s: %s", sentinel, t.node.ID, path, env.Error)
}
