package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dsa"
	"repro/pkg/tcq"
)

// This file is the serving layer's side of the cluster seam: the
// /v1/leg peer endpoint (serving legs to remote coordinators at their
// pinned epochs), the update fan-out glue, the epoch-history snapshot
// ring that keeps recently superseded generations servable, and the
// cluster views exported through /stats and Explain.

// epochHistoryDepth is how many recent generations a node keeps
// servable for peers. A coordinator pins its epoch at query start, so
// a leg RPC can lag the owner by however many batches landed since;
// eight generations covers any realistic in-flight window at smoke
// scale, and anything older answers with a typed epoch skew instead
// of wrong data.
const epochHistoryDepth = 8

// snapHistory is a bounded ring of recent snapshots keyed by epoch.
// The dataset only exposes the CURRENT generation; peers executing
// legs for queries pinned a few batches back need the superseded ones
// too, so the server retains them here (snapshots are immutable and
// cheap to hold — structurally shared with their successors).
type snapHistory struct {
	mu    sync.Mutex
	cap   int
	snaps []*tcq.Snapshot // oldest first
}

func newSnapHistory(capacity int) *snapHistory {
	return &snapHistory{cap: capacity, snaps: make([]*tcq.Snapshot, 0, capacity)}
}

// add retains a generation, evicting the oldest past the bound. Eviction
// shifts in place, so the evicted generation (and the sites only it
// holds) becomes unreachable at once instead of lingering in the
// backing array.
func (h *snapHistory) add(s *tcq.Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.snaps) < h.cap {
		h.snaps = append(h.snaps, s)
		return
	}
	copy(h.snaps, h.snaps[1:])
	h.snaps[len(h.snaps)-1] = s
}

// at returns the retained generation with the exact epoch, nil if it
// was never seen or already evicted.
func (h *snapHistory) at(epoch uint64) *tcq.Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(h.snaps) - 1; i >= 0; i-- {
		if h.snaps[i].Epoch() == epoch {
			return h.snaps[i]
		}
	}
	return nil
}

// snapshotAt resolves the generation a peer RPC pinned: the current
// snapshot fast path, then the history ring.
func (s *Server) snapshotAt(epoch uint64) *tcq.Snapshot {
	if snap := s.ds.Snapshot(); snap.Epoch() == epoch {
		return snap
	}
	return s.history.at(epoch)
}

// handleV1Leg serves POST /v1/leg — the internal peer endpoint of the
// cluster transport. The request names a (site, entry set, engine)
// computation and the epoch the remote coordinator pinned; the answer
// is the full leg fact relation (the paper's complementary-cost
// table) straight from this node's cache or kernels. An epoch this
// node cannot serve — older than the history window, or not yet
// applied here — answers 409 epoch_skew rather than facts from a
// different generation.
func (s *Server) handleV1Leg(w http.ResponseWriter, r *http.Request) {
	var req cluster.LegRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeV1Error(w, fmt.Errorf("%w: bad body: %v", tcq.ErrInvalidRequest, err))
		return
	}
	engine, err := dsa.ParseEngine(req.Engine)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	snap := s.snapshotAt(req.Epoch)
	if snap == nil {
		writeV1Error(w, fmt.Errorf("server: %w: cannot serve epoch %d (current %d)",
			tcq.ErrEpochSkew, req.Epoch, s.ds.Epoch()))
		return
	}
	// No exit set: the peer gets the whole table and selects its own.
	lr, hit, err := s.executeLegLocal(r.Context(), snap, dsa.Leg{SiteID: req.Site, Entry: req.EntryNodes()}, engine)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	if s.cluster != nil {
		s.cluster.LocalLeg()
	}
	writeJSON(w, http.StatusOK, cluster.NewLegResponse(req.Epoch, hit, lr.Rel, lr.Stats))
}

// fanOutUpdate forwards one just-applied transaction to every peer and
// verifies the coherent epoch swap (see Coordinator.FanOutUpdate). A
// request already marked forwarded is a peer's fan-out — applied
// locally only, never re-forwarded (the loop guard).
func (s *Server) fanOutUpdate(r *http.Request, ops []cluster.UpdateOp, wantEpoch uint64) ([]cluster.PeerAck, error) {
	if s.cluster == nil || r.Header.Get(cluster.ForwardedHeader) != "" {
		return nil, nil
	}
	return s.cluster.FanOutUpdate(r.Context(), ops, wantEpoch)
}

// Placement implements tcq.PlacementReporter: the facade calls it to
// annotate each materialised result with the node that owned each
// involved site's legs. Single-node deployments report nothing.
func (s *Server) Placement(sites []int) []tcq.SitePlacement {
	if s.cluster == nil {
		return nil
	}
	out := make([]tcq.SitePlacement, len(sites))
	for i, site := range sites {
		out[i] = tcq.SitePlacement{Site: site, Node: s.cluster.Owner(site).ID}
	}
	return out
}

// ClusterStats is the /stats view of a multi-node deployment.
type ClusterStats struct {
	// NodeID is this node's identity in the membership.
	NodeID string `json:"node_id"`
	// Nodes is the full static membership, sorted by ID.
	Nodes []cluster.Node `json:"nodes"`
	// Placement maps node ID → sites owned (the full routing table;
	// identical on every member, derived from the same ring).
	Placement map[string][]int `json:"placement"`
	// Breakers maps each remote peer to its circuit-breaker state
	// (closed | half_open | open) as seen by this node.
	Breakers map[string]string `json:"breakers"`
}

// clusterStats builds the /stats cluster block (nil when single-node).
func (s *Server) clusterStats(sites int) *ClusterStats {
	if s.cluster == nil {
		return nil
	}
	return &ClusterStats{
		NodeID:    s.cluster.Self().ID,
		Nodes:     s.cluster.Nodes(),
		Placement: s.cluster.Placement(sites),
		Breakers:  s.cluster.BreakerStates(),
	}
}
