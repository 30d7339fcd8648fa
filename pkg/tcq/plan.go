package tcq

import (
	"fmt"

	"repro/internal/dsa"
)

// StoreStats is the per-deployment summary the planner decides on. It
// is collected once per store epoch (CollectStats) and is deliberately
// cheap to snapshot — no per-query graph scans.
type StoreStats struct {
	// Problem is the path problem the store precomputed.
	Problem Problem
	// Sites is the number of deployed fragments.
	Sites int
	// TotalNodes is the node count of the base graph.
	TotalNodes int
	// LooselyConnected reports an acyclic fragmentation graph
	// (single-chain plans, exact answers).
	LooselyConnected bool
	// Epoch is the store update generation the stats were collected at.
	Epoch uint64
}

// CollectStats snapshots the planner inputs from a deployed store.
func CollectStats(st *dsa.Store) StoreStats {
	return StoreStats{
		Problem:          st.Problem(),
		Sites:            len(st.Sites()),
		TotalNodes:       st.Fragmentation().Base().NumNodes(),
		LooselyConnected: st.LooselyConnected(),
		Epoch:            st.Epoch(),
	}
}

// Explain is the planner's decision for one request: the concrete
// engine that will run every leg, and why. It is returned on every
// Result so callers can audit the system's choice, and its Canonical
// rendering is what the serving layer keys its leg cache on.
type Explain struct {
	// Mode echoes the request mode.
	Mode Mode
	// Engine is the resolved concrete engine (never EngineAuto).
	Engine Engine
	// Forced reports that the request overrode the planner.
	Forced bool
	// Reason says why the engine was chosen, in one sentence.
	Reason string
	// EntrySize is the canonical (deduplicated) source-set size the
	// decision was based on.
	EntrySize int
	// Pairs is the number of (source, target) pairs the request spans
	// before any Limit.
	Pairs int
	// Placement maps each site the answers touched to the cluster node
	// that owns (and executed) its legs. It is populated only when the
	// runner executes across a multi-node cluster (the serving layer's
	// executor implements PlacementReporter); single-process runners
	// leave it nil. Sites ascending.
	Placement []SitePlacement
}

// SitePlacement records which cluster node owns one site's legs.
type SitePlacement struct {
	// Site is the fragment/site ID.
	Site int `json:"site"`
	// Node is the owning node's ID.
	Node string `json:"node"`
	// Fallback reports degraded-mode execution: the owning node was
	// unreachable (down, timed out, or circuit-breaker open), so the
	// coordinator executed this site's legs locally against its own
	// pinned snapshot. The answer is exact — every node holds the full
	// dataset — but the cluster is running degraded; /readyz reports it.
	Fallback bool `json:"fallback,omitempty"`
}

// PlacementReporter is implemented by runners that execute legs across
// a multi-node cluster: given the sites a result touched, it reports
// which node owns each. The facade uses it to fill Explain.Placement
// on materialised results.
type PlacementReporter interface {
	Placement(sites []int) []SitePlacement
}

// Canonical renders the plan as a stable "mode/engine" string — the
// cache-key prefix of the serving layer's leg cache and the wire value
// of the /v1 API's explain block.
func (e Explain) Canonical() string {
	return e.Mode.String() + "/" + e.Engine.String()
}

// Plan resolves the engine for a request against a deployment's stats:
// the planner of the facade. Forced engines are validated for mode
// compatibility and passed through; EngineAuto is resolved from the
// query mode alone:
//
//	connectivity  → bitset
//	cost          → dense
//	pipelined     → dense
//
// Every leg of a plan runs on one site's CSR, which both kernels read
// as the Dijkstra engine does, and the kernels beat per-entry Dijkstra
// from the smallest sites measured up. The kernels refuse a negative
// edge weight, which graph files may carry, with ErrNegativeWeight;
// a forced EngineDijkstra still answers such a deployment, though
// Dijkstra is unsound on negative weights. The semi-naive engine is never auto-chosen: it is the paper-faithful
// reference implementation, available only as an explicit override.
// Errors wrap ErrProblemMismatch (cost modes on a reachability store),
// ErrEngineMismatch (incompatible forced engine) or the validation
// sentinels.
func Plan(req Request, stats StoreStats) (Explain, error) {
	canon, err := req.canonical()
	if err != nil {
		return Explain{}, err
	}
	ex := Explain{
		Mode:      canon.Mode,
		EntrySize: len(canon.Sources),
		Pairs:     len(canon.Sources) * len(canon.Targets),
	}
	costQuery := canon.Mode == ModeCost || canon.Mode == ModePipelined
	if costQuery && stats.Problem != ProblemShortestPath {
		return ex, fmt.Errorf("tcq: %w: store precomputed for reachability cannot answer %s queries",
			ErrProblemMismatch, canon.Mode)
	}
	if canon.Engine != EngineAuto {
		ex.Engine = canon.Engine
		ex.Forced = true
		ex.Reason = "engine forced by request"
		forced, _ := canon.Engine.dsa() // concrete: canonical validated it, and it is not auto
		if canon.Mode == ModePipelined && !forced.VectorSeeded() {
			return ex, fmt.Errorf("tcq: %w: pipelined evaluation needs a vector-seeded engine (%s), not %s",
				ErrEngineMismatch, dsa.EngineNames(dsa.Engine.VectorSeeded), forced)
		}
		if canon.Mode == ModeCost && !forced.CostCapable() {
			return ex, fmt.Errorf("tcq: %w: engine %s computes connectivity only", ErrEngineMismatch, forced)
		}
		return ex, nil
	}

	switch canon.Mode {
	case ModeConnectivity:
		ex.Engine, ex.Reason = EngineBitset, "connectivity: bitset kernel over the site CSRs"
	case ModeCost:
		ex.Engine, ex.Reason = EngineDense, "cost query: dense kernel over the site CSRs"
	case ModePipelined:
		ex.Engine, ex.Reason = EngineDense, "pipelined chain: dense vector-seeded kernel over the site CSRs"
	}
	return ex, nil
}
