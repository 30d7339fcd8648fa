package tcq

import (
	"fmt"

	"repro/internal/dsa"
)

// Planner thresholds. A query crossing either floor is routed to the
// parallel kernels (bitset for connectivity, dense for costs); below
// both, the per-entry Dijkstra engine wins on startup cost. The values
// come from the repository's own benchmarks: on 64x64 grid fragments
// (~512 augmented nodes) the kernels beat Dijkstra by an order of
// magnitude, while on the paper's country-sized examples (tens of
// nodes) they lose to their setup work.
const (
	// KernelNodeFloor is the augmented-fragment node count at which the
	// planner switches from Dijkstra to the kernel engines.
	KernelNodeFloor = 192
	// KernelEntryFloor is the entry-set size at which the planner
	// switches to the kernel engines even on small fragments: a request
	// with n sources spans at least n per-pair evaluations, and the
	// kernels amortise their per-site setup (CSR snapshot, dense
	// renumbering/condensation — built once per site and reused) across
	// that volume, while Dijkstra pays its search cost per pair with
	// nothing to amortise.
	KernelEntryFloor = 8
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
	// MaxSiteNodes and MaxSiteEdges bound the largest augmented
	// fragment — the size of the worst per-site subquery, which is what
	// engine choice cares about.
	MaxSiteNodes int
	// MaxSiteEdges — see MaxSiteNodes.
	MaxSiteEdges int
	// LooselyConnected reports an acyclic fragmentation graph
	// (single-chain plans, exact answers).
	LooselyConnected bool
	// Epoch is the store update generation the stats were collected at.
	Epoch uint64
}

// CollectStats snapshots the planner inputs from a deployed store.
func CollectStats(st *dsa.Store) StoreStats {
	s := StoreStats{
		Problem:          st.Problem(),
		Sites:            len(st.Sites()),
		TotalNodes:       st.Fragmentation().Base().NumNodes(),
		LooselyConnected: st.LooselyConnected(),
		Epoch:            st.Epoch(),
	}
	for _, site := range st.Sites() {
		if n := site.Augmented().NumNodes(); n > s.MaxSiteNodes {
			s.MaxSiteNodes = n
		}
		if e := site.Augmented().NumEdges(); e > s.MaxSiteEdges {
			s.MaxSiteEdges = e
		}
	}
	return s
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
// the cost-based auto-planner of the facade. Forced engines are
// validated for mode compatibility and passed through; EngineAuto is
// resolved from the query mode, the entry-set size and the largest
// augmented fragment:
//
//	connectivity  → bitset when the deployment crosses KernelNodeFloor
//	                or the entry set crosses KernelEntryFloor, else
//	                dijkstra
//	cost          → dense under the same floors, else dijkstra
//	pipelined     → dense when the deployment crosses KernelNodeFloor,
//	                else dijkstra (entry size is irrelevant — pipelined
//	                legs are one vector-seeded pass regardless)
//
// The semi-naive engine is never auto-chosen: it is the paper-faithful
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

	largeSite := stats.MaxSiteNodes >= KernelNodeFloor
	largeEntry := ex.EntrySize >= KernelEntryFloor
	switch canon.Mode {
	case ModeConnectivity:
		if largeSite || largeEntry {
			ex.Engine = EngineBitset
			ex.Reason = fmt.Sprintf("connectivity over large work (max site nodes %d, entry set %d spanning %d pairs): bitset kernel",
				stats.MaxSiteNodes, ex.EntrySize, ex.Pairs)
		} else {
			ex.Engine = EngineDijkstra
			ex.Reason = fmt.Sprintf("connectivity over small work (max site nodes %d < %d, entry set %d < %d): per-entry dijkstra",
				stats.MaxSiteNodes, KernelNodeFloor, ex.EntrySize, KernelEntryFloor)
		}
	case ModeCost:
		if largeSite || largeEntry {
			ex.Engine = EngineDense
			ex.Reason = fmt.Sprintf("cost query over large work (max site nodes %d, entry set %d spanning %d pairs): dense CSR kernel",
				stats.MaxSiteNodes, ex.EntrySize, ex.Pairs)
		} else {
			ex.Engine = EngineDijkstra
			ex.Reason = fmt.Sprintf("cost query over small work (max site nodes %d < %d, entry set %d < %d): per-entry dijkstra",
				stats.MaxSiteNodes, KernelNodeFloor, ex.EntrySize, KernelEntryFloor)
		}
	case ModePipelined:
		if largeSite {
			ex.Engine = EngineDense
			ex.Reason = fmt.Sprintf("pipelined chain over large fragments (max site nodes %d ≥ %d): dense vector-seeded kernel",
				stats.MaxSiteNodes, KernelNodeFloor)
		} else {
			ex.Engine = EngineDijkstra
			ex.Reason = fmt.Sprintf("pipelined chain over small fragments (max site nodes %d < %d): multi-source dijkstra",
				stats.MaxSiteNodes, KernelNodeFloor)
		}
	}
	return ex, nil
}
