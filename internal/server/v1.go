package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/pkg/tcq"
)

// This file is the versioned HTTP surface of the facade: POST
// /v1/query, POST /v1/batch and POST /v1/update, JSON in both
// directions, speaking pkg/tcq's vocabulary (source/target sets, modes,
// auto-planned engines, op batches, typed error codes).

// maxBatchRequests bounds one /v1/batch body — a backstop against a
// single request monopolising the sites.
const maxBatchRequests = 256

// maxUpdateOps bounds one /v1/update body — a backstop against a
// single transaction monopolising the writer gate.
const maxUpdateOps = 256

// maxQueryPairs bounds the effective (source, target) pair count of
// one /v1 request: the sources × targets product, reduced by an
// explicit limit. The same backstop as maxBatchRequests, for the
// cross-product dimension.
const maxQueryPairs = 4096

// maxBodyBytes bounds a /v1 request body.
const maxBodyBytes = 8 << 20

// V1Request is the JSON body of POST /v1/query (and one element of a
// /v1/batch body): the wire form of tcq.Request.
type V1Request struct {
	// Sources and Targets are the query entry and exit sets (required,
	// non-empty).
	Sources []int `json:"sources"`
	Targets []int `json:"targets"`
	// Mode is connectivity (default), cost or pipelined.
	Mode string `json:"mode,omitempty"`
	// Engine forces a concrete engine; empty or "auto" lets the planner
	// choose.
	Engine string `json:"engine,omitempty"`
	// Limit caps the number of answers (0 = all pairs).
	Limit int `json:"limit,omitempty"`
}

// toRequest parses the wire form into a facade request.
func (v V1Request) toRequest() (tcq.Request, error) {
	mode, err := tcq.ParseMode(v.Mode)
	if err != nil {
		return tcq.Request{}, err
	}
	engine, err := tcq.ParseEngine(v.Engine)
	if err != nil {
		return tcq.Request{}, err
	}
	// Bound the work one request can demand: the pair product, after
	// the limit (a limited stream never evaluates past its limit).
	pairs := len(v.Sources) * len(v.Targets)
	if v.Limit > 0 && v.Limit < pairs {
		pairs = v.Limit
	}
	if pairs > maxQueryPairs {
		return tcq.Request{}, fmt.Errorf("%w: request spans %d pairs, exceeding the %d-pair bound (set a limit)",
			tcq.ErrInvalidRequest, pairs, maxQueryPairs)
	}
	return tcq.Request{Sources: v.Sources, Targets: v.Targets, Mode: mode, Engine: engine, Limit: v.Limit}, nil
}

// V1Explain is the wire form of the planner's decision.
type V1Explain struct {
	Mode      string `json:"mode"`
	Engine    string `json:"engine"`
	Canonical string `json:"canonical"`
	Forced    bool   `json:"forced"`
	Reason    string `json:"reason"`
	EntrySize int    `json:"entry_size"`
	Pairs     int    `json:"pairs"`
	// Placement maps each involved site to the cluster node that owned
	// its legs; present only on multi-node deployments.
	Placement []V1SitePlacement `json:"placement,omitempty"`
}

// V1SitePlacement is one site→node ownership entry of a clustered
// explain: the facade's own record, which already carries the wire
// tags.
type V1SitePlacement = tcq.SitePlacement

// V1Answer is one (source, target) pair answer on the wire.
type V1Answer struct {
	Source    int  `json:"source"`
	Target    int  `json:"target"`
	Reachable bool `json:"reachable"`
	// Cost is present only on reachable cost-mode answers (the
	// library's +Inf does not survive JSON).
	Cost             *float64 `json:"cost,omitempty"`
	BestChain        []int    `json:"best_chain,omitempty"`
	SameFragment     bool     `json:"same_fragment"`
	Truncated        bool     `json:"truncated"`
	ChainsConsidered int      `json:"chains_considered"`
	Sites            int      `json:"sites"`
	TuplesShipped    int      `json:"tuples_shipped"`
	ElapsedUS        int64    `json:"elapsed_us"`
}

// V1QueryResponse is the JSON answer of POST /v1/query.
type V1QueryResponse struct {
	Explain     V1Explain  `json:"explain"`
	Answers     []V1Answer `json:"answers"`
	LimitHit    bool       `json:"limit_hit"`
	CacheHits   int        `json:"cache_hits"`
	CacheMisses int        `json:"cache_misses"`
	ElapsedUS   int64      `json:"elapsed_us"`
}

// V1Error is the JSON error envelope of the /v1 endpoints: a
// human-readable message plus a stable machine code derived from the
// facade's typed errors.
type V1Error struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// V1BatchRequest is the JSON body of POST /v1/batch.
type V1BatchRequest struct {
	Requests []V1Request `json:"requests"`
}

// V1BatchItem is one element of a batch response: exactly one of
// Response and Error is set — batch evaluation is partial-failure
// tolerant.
type V1BatchItem struct {
	Response *V1QueryResponse `json:"response,omitempty"`
	Error    *V1Error         `json:"error,omitempty"`
}

// V1BatchResponse is the JSON answer of POST /v1/batch, one item per
// request in order.
type V1BatchResponse struct {
	Results []V1BatchItem `json:"results"`
}

// V1UpdateOp is one typed mutation of a /v1/update transaction — the
// very op the update fan-out forwards to peers.
type V1UpdateOp = cluster.UpdateOp

// V1UpdateRequest is the JSON body of POST /v1/update: an ordered op
// batch applied as one transaction — either every op lands in one new
// epoch, or nothing is applied and the response lists a typed error
// per offending op.
type V1UpdateRequest = cluster.UpdateRequest

// V1UpdateResponse is the JSON answer of a successful POST /v1/update.
type V1UpdateResponse struct {
	// Epoch is the new dataset generation the batch produced.
	Epoch uint64 `json:"epoch"`
	// Applied is the number of ops the transaction applied.
	Applied int `json:"applied"`
	// RecomputedSets and DijkstraRuns report the preprocessing cost.
	RecomputedSets int `json:"recomputed_sets"`
	DijkstraRuns   int `json:"dijkstra_runs"`
	// RebuiltFragments lists the fragments that were re-preprocessed;
	// SharedFragments counts those structurally shared with the
	// previous epoch (their cached leg results survive the swap).
	RebuiltFragments []int `json:"rebuilt_fragments"`
	SharedFragments  int   `json:"shared_fragments"`
	// LocalOnly reports that no complementary information existed to
	// recompute.
	LocalOnly bool  `json:"local_only"`
	ElapsedUS int64 `json:"elapsed_us"`
	// Cluster lists the peer acknowledgements of the epoch fan-out —
	// present only when this node coordinated a clustered update. Every
	// ack carries the same epoch as Epoch above (a diverging peer makes
	// the whole request fail with epoch_skew instead).
	Cluster []cluster.PeerAck `json:"cluster,omitempty"`
}

// V1OpError is one refused op of a /v1/update transaction.
type V1OpError struct {
	// Index is the op's position in the request's ops array.
	Index int `json:"index"`
	// Code is the stable machine code of the refusal.
	Code string `json:"code"`
	// Error is the human-readable detail.
	Error string `json:"error"`
}

// V1UpdateError is the JSON error envelope of POST /v1/update: the
// batch-level message plus one typed error per offending op. When it
// is returned, nothing was applied.
type V1UpdateError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// Ops lists the refused operations (absent for non-batch failures
	// such as a malformed body).
	Ops []V1OpError `json:"ops,omitempty"`
}

// errorCode maps a facade error onto (HTTP status, stable code).
func errorCode(err error) (int, string) {
	switch {
	case errors.Is(err, tcq.ErrInvalidRequest), errors.Is(err, tcq.ErrEmptyBatch):
		return http.StatusBadRequest, "invalid_request"
	case errors.Is(err, tcq.ErrEdgeNotFound):
		return http.StatusNotFound, "edge_not_found"
	case errors.Is(err, tcq.ErrEmptyFragment):
		return http.StatusBadRequest, "empty_fragment"
	case errors.Is(err, tcq.ErrUnknownMode):
		return http.StatusBadRequest, "unknown_mode"
	case errors.Is(err, tcq.ErrUnknownEngine):
		return http.StatusBadRequest, "unknown_engine"
	case errors.Is(err, tcq.ErrEngineMismatch):
		return http.StatusBadRequest, "engine_mismatch"
	case errors.Is(err, tcq.ErrProblemMismatch):
		return http.StatusBadRequest, "problem_mismatch"
	case errors.Is(err, tcq.ErrNegativeWeight):
		return http.StatusBadRequest, "negative_weight"
	case errors.Is(err, tcq.ErrUnknownNode):
		return http.StatusNotFound, "unknown_node"
	case errors.Is(err, tcq.ErrUnknownSite):
		return http.StatusNotFound, "unknown_site"
	case errors.Is(err, tcq.ErrNoRoute):
		return http.StatusNotFound, "no_route"
	case errors.Is(err, tcq.ErrCanceled):
		// 499 is the de-facto "client closed request" status; by the
		// time it is written the client is usually gone anyway.
		return 499, "canceled"
	case errors.Is(err, tcq.ErrEpochSkew):
		return http.StatusConflict, "epoch_skew"
	case errors.Is(err, tcq.ErrPeerTimeout):
		return http.StatusGatewayTimeout, "peer_timeout"
	case errors.Is(err, tcq.ErrPeerDown):
		return http.StatusBadGateway, "peer_down"
	case errors.Is(err, tcq.ErrBadPeerResponse):
		return http.StatusBadGateway, "bad_peer_response"
	}
	return http.StatusInternalServerError, "internal"
}

// writeV1Error renders a typed error as the /v1 envelope.
func writeV1Error(w http.ResponseWriter, err error) {
	status, code := errorCode(err)
	writeJSON(w, status, V1Error{Error: err.Error(), Code: code})
}

// v1ResponseFrom renders a facade result on the wire.
func v1ResponseFrom(res *tcq.Result) *V1QueryResponse {
	out := &V1QueryResponse{
		Explain: V1Explain{
			Mode:      res.Explain.Mode.String(),
			Engine:    res.Explain.Engine.String(),
			Canonical: res.Explain.Canonical(),
			Forced:    res.Explain.Forced,
			Reason:    res.Explain.Reason,
			EntrySize: res.Explain.EntrySize,
			Pairs:     res.Explain.Pairs,
			Placement: res.Explain.Placement,
		},
		Answers:     make([]V1Answer, 0, len(res.Answers)),
		LimitHit:    res.LimitHit,
		CacheHits:   res.CacheHits,
		CacheMisses: res.CacheMisses,
		ElapsedUS:   res.Elapsed.Microseconds(),
	}
	costMode := res.Explain.Mode != tcq.ModeConnectivity
	for _, a := range res.Answers {
		va := V1Answer{
			Source:           a.Source,
			Target:           a.Target,
			Reachable:        a.Reachable,
			BestChain:        a.BestChain,
			SameFragment:     a.SameFragment,
			Truncated:        a.Truncated,
			ChainsConsidered: a.ChainsConsidered,
			Sites:            a.Sites,
			TuplesShipped:    a.TuplesShipped,
			ElapsedUS:        a.Elapsed.Microseconds(),
		}
		if costMode && a.Reachable {
			cost := a.Cost
			va.Cost = &cost
		}
		out.Answers = append(out.Answers, va)
	}
	return out
}

// handleV1Query serves POST /v1/query.
func (s *Server) handleV1Query(w http.ResponseWriter, r *http.Request) {
	var body V1Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		writeV1Error(w, fmt.Errorf("%w: bad body: %v", tcq.ErrInvalidRequest, err))
		return
	}
	req, err := body.toRequest()
	if err != nil {
		writeV1Error(w, err)
		return
	}
	res, err := s.facade.Query(r.Context(), req)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v1ResponseFrom(res))
}

// handleV1Update serves POST /v1/update: parse the op batch, apply it
// as one transaction through the dataset (atomic: any refused op means
// nothing is applied and every offending op is reported with a typed
// code), answer with the new epoch and the incremental-rebuild cost
// breakdown.
func (s *Server) handleV1Update(w http.ResponseWriter, r *http.Request) {
	var body V1UpdateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		writeV1Error(w, fmt.Errorf("%w: bad body: %v", tcq.ErrInvalidRequest, err))
		return
	}
	if len(body.Ops) == 0 {
		writeV1Error(w, fmt.Errorf("%w: empty ops", tcq.ErrInvalidRequest))
		return
	}
	if len(body.Ops) > maxUpdateOps {
		writeV1Error(w, fmt.Errorf("%w: transaction of %d ops exceeds the %d-op bound",
			tcq.ErrInvalidRequest, len(body.Ops), maxUpdateOps))
		return
	}
	var b tcq.Batch
	for i, op := range body.Ops {
		switch op.Op {
		case "insert":
			b.Insert(op.Fragment, op.From, op.To, op.Weight)
		case "delete":
			b.Delete(op.Fragment, op.From, op.To, op.Weight)
		default:
			writeJSON(w, http.StatusBadRequest, V1UpdateError{
				Error: fmt.Sprintf("op %d: unknown op %q (want insert or delete)", i, op.Op),
				Code:  "invalid_request",
				Ops:   []V1OpError{{Index: i, Code: "invalid_request", Error: fmt.Sprintf("unknown op %q", op.Op)}},
			})
			return
		}
	}
	start := time.Now()
	res, err := s.ApplyBatch(r.Context(), &b)
	if err != nil {
		writeV1UpdateError(w, err)
		return
	}
	// Clustered deployments fan the transaction out to every peer and
	// verify the coherent epoch swap before acking the client; a peer
	// failure or diverging epoch surfaces as a typed error (the local
	// apply stands — retrying the transaction converges the cluster).
	acks, err := s.fanOutUpdate(r, body.Ops, res.Epoch)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	writeJSON(w, http.StatusOK, V1UpdateResponse{
		Epoch:            res.Epoch,
		Applied:          res.Stats.Ops,
		RecomputedSets:   res.Stats.RecomputedSets,
		DijkstraRuns:     res.Stats.DijkstraRuns,
		RebuiltFragments: res.Stats.SitesRebuilt,
		SharedFragments:  res.Stats.SitesShared,
		LocalOnly:        res.Stats.LocalOnly,
		ElapsedUS:        time.Since(start).Microseconds(),
		Cluster:          acks,
	})
}

// writeV1UpdateError renders an Apply failure: atomic batch refusals
// carry per-op typed codes (worst status wins), everything else is the
// plain typed envelope.
func writeV1UpdateError(w http.ResponseWriter, err error) {
	var be *tcq.BatchError
	if errors.As(err, &be) {
		status := http.StatusBadRequest
		ops := make([]V1OpError, 0, len(be.Ops))
		for _, oe := range be.Ops {
			st, code := errorCode(oe.Err)
			if st > status {
				status = st
			}
			ops = append(ops, V1OpError{Index: oe.Index, Code: code, Error: oe.Err.Error()})
		}
		writeJSON(w, status, V1UpdateError{Error: err.Error(), Code: "batch_refused", Ops: ops})
		return
	}
	writeV1Error(w, err)
}

// handleV1Batch serves POST /v1/batch: every request of the body is
// answered in order, with per-item typed errors — one malformed or
// unanswerable entry never poisons its neighbours.
func (s *Server) handleV1Batch(w http.ResponseWriter, r *http.Request) {
	var body V1BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		writeV1Error(w, fmt.Errorf("%w: bad body: %v", tcq.ErrInvalidRequest, err))
		return
	}
	if len(body.Requests) == 0 {
		writeV1Error(w, fmt.Errorf("%w: empty batch", tcq.ErrInvalidRequest))
		return
	}
	if len(body.Requests) > maxBatchRequests {
		writeV1Error(w, fmt.Errorf("%w: batch of %d exceeds the %d-request bound",
			tcq.ErrInvalidRequest, len(body.Requests), maxBatchRequests))
		return
	}
	// Parse every entry first; entries that fail stay as error items
	// and the parseable remainder goes through the facade batch path.
	items := make([]V1BatchItem, len(body.Requests))
	reqs := make([]tcq.Request, 0, len(body.Requests))
	reqIdx := make([]int, 0, len(body.Requests))
	for i, vr := range body.Requests {
		req, err := vr.toRequest()
		if err != nil {
			_, code := errorCode(err)
			items[i] = V1BatchItem{Error: &V1Error{Error: err.Error(), Code: code}}
			continue
		}
		reqs = append(reqs, req)
		reqIdx = append(reqIdx, i)
	}
	batch, batchErr := s.facade.QueryBatch(r.Context(), reqs)
	for bi, br := range batch {
		i := reqIdx[bi]
		if br.Err != nil {
			_, code := errorCode(br.Err)
			items[i] = V1BatchItem{Error: &V1Error{Error: br.Err.Error(), Code: code}}
			continue
		}
		items[i] = V1BatchItem{Response: v1ResponseFrom(br.Result)}
	}
	if batchErr != nil {
		// Cancellation mid-batch: the unprocessed suffix gets the
		// canceled code (the client has usually disconnected).
		_, code := errorCode(batchErr)
		for bi := len(batch); bi < len(reqIdx); bi++ {
			items[reqIdx[bi]] = V1BatchItem{Error: &V1Error{Error: batchErr.Error(), Code: code}}
		}
	}
	writeJSON(w, http.StatusOK, V1BatchResponse{Results: items})
}
