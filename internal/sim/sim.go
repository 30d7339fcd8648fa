// Package sim simulates the shared-nothing multiprocessor database
// machine the paper targets (PRISMA/DB, references [4, 14, 20]): one
// site process (goroutine) per fragment, a coordinator, and a recorded
// message trace as the interconnect.
//
// The simulator executes disconnection-set queries with real
// goroutine-per-site concurrency while making the communication pattern
// observable: every task and result shipment is counted, and the
// defining property of the disconnection set approach — "neither
// communication nor synchronization is required during the first phase
// of the computation" — becomes an assertable fact (InterSiteMessages
// is structurally zero; only coordinator↔site traffic exists).
//
// Because wall-clock times on a time-shared laptop are noisy, the
// simulator additionally charges a deterministic cost model (tuples
// processed per second, per-message latency, per-tuple transfer) and
// reports the simulated makespan, the simulated single-processor time,
// and their ratio — the speedup the paper's §2.1 claims is linear for
// good fragmentations.
package sim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// CoordinatorID is the pseudo-site ID of the coordinator in message
// records.
const CoordinatorID = -1

// CostModel charges simulated time for computation and communication.
type CostModel struct {
	// TupleRate is the number of derived tuples a site processes per
	// simulated second.
	TupleRate float64
	// MessageLatency is the fixed cost per message.
	MessageLatency time.Duration
	// TupleTransfer is the added cost per shipped tuple.
	TupleTransfer time.Duration
}

// DefaultCostModel returns a model in the regime of late-80s
// shared-nothing machines (tens of thousands of tuples per second per
// node, millisecond-scale messages), the hardware class of PRISMA.
func DefaultCostModel() CostModel {
	return CostModel{
		TupleRate:      50_000,
		MessageLatency: 2 * time.Millisecond,
		TupleTransfer:  20 * time.Microsecond,
	}
}

// validate rejects nonsensical models.
func (c CostModel) validate() error {
	if c.TupleRate <= 0 {
		return fmt.Errorf("sim: TupleRate must be positive, got %g", c.TupleRate)
	}
	if c.MessageLatency < 0 || c.TupleTransfer < 0 {
		return fmt.Errorf("sim: negative communication costs")
	}
	return nil
}

// Message records one shipment over the simulated interconnect.
type Message struct {
	// From and To are site IDs (CoordinatorID for the coordinator).
	From, To int
	// Tuples is the payload cardinality (0 for task messages).
	Tuples int
}

// Cluster is a deployed simulation: a store plus a cost model.
type Cluster struct {
	store *dsa.Store
	cost  CostModel
}

// New builds a cluster over a disconnection-set store.
func New(store *dsa.Store, cost CostModel) (*Cluster, error) {
	if store == nil {
		return nil, fmt.Errorf("sim: nil store")
	}
	if err := cost.validate(); err != nil {
		return nil, err
	}
	return &Cluster{store: store, cost: cost}, nil
}

// Store returns the underlying disconnection-set store.
func (c *Cluster) Store() *dsa.Store { return c.store }

// Report is the outcome of one simulated query.
type Report struct {
	// Cost, Reachable and BestChain are the query answer. Cost is +Inf
	// when unreachable — and under the connectivity-only
	// dsa.EngineBitset it is +Inf for every non-trivial query, because
	// the leg facts carry presence markers rather than path costs (use
	// Reachable; BestChain is then a chain witnessing connectivity, not
	// the cheapest one). The source == target fast path still reports
	// the true cost 0.
	Cost      float64
	Reachable bool
	BestChain []int
	// SitesUsed is the number of sites that executed at least one leg.
	SitesUsed int
	// SiteBusy is the simulated busy time per site.
	SiteBusy map[int]time.Duration
	// Phase1Elapsed is the simulated phase-1 makespan: the slowest
	// site's busy time (sites run independently, so the maximum is the
	// parallel elapsed time).
	Phase1Elapsed time.Duration
	// AssemblyElapsed is the simulated cost of the final joins at the
	// coordinator, including result shipment.
	AssemblyElapsed time.Duration
	// ParallelElapsed = Phase1Elapsed + AssemblyElapsed.
	ParallelElapsed time.Duration
	// SequentialElapsed is the simulated time of the same work on one
	// processor: the sum of all site busy times plus assembly without
	// shipment.
	SequentialElapsed time.Duration
	// Speedup = SequentialElapsed / ParallelElapsed.
	Speedup float64
	// Messages is the full interconnect trace (coordinator↔sites).
	Messages []Message
	// InterSiteMessages counts site↔site messages; the disconnection
	// set approach never sends any (always 0, asserted by tests).
	InterSiteMessages int
	// TuplesShipped is the total result payload.
	TuplesShipped int
}

// legWork converts a leg's statistics into simulated busy time.
func (c *Cluster) legWork(lr *dsa.LegResult) time.Duration {
	tuples := lr.Stats.DerivedTuples + lr.Stats.ResultTuples + len(lr.Leg.Entry)
	sec := float64(tuples) / c.cost.TupleRate
	return time.Duration(sec * float64(time.Second))
}

// Run executes one shortest-path query on the simulated cluster: the
// store's own executor with one goroutine per site process, each leg
// bracketed by its coordinator→site task message and site→coordinator
// result shipment. No message ever joins two sites — phase 1 is
// communication-free by construction.
func (c *Cluster) Run(ctx context.Context, source, target graph.NodeID, engine dsa.Engine) (*Report, error) {
	plan, err := c.store.NewPlan(source, target)
	if err != nil {
		return nil, err
	}
	rep := &Report{SiteBusy: make(map[int]time.Duration)}
	var mu sync.Mutex // guards rep.Messages and rep.SiteBusy
	res, err := c.store.RunLegs(ctx, plan, true, func(ctx context.Context, leg dsa.Leg) (*dsa.LegResult, error) {
		lr, err := c.store.ExecuteLegCtx(ctx, leg, engine)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		rep.Messages = append(rep.Messages,
			Message{From: CoordinatorID, To: leg.SiteID},
			Message{From: leg.SiteID, To: CoordinatorID, Tuples: lr.Stats.ResultTuples})
		rep.SiteBusy[leg.SiteID] += c.legWork(lr)
		mu.Unlock()
		return lr, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Cost, rep.Reachable, rep.BestChain = res.Cost, res.Reachable, res.BestChain
	rep.SitesUsed = len(res.PerSite)
	rep.TuplesShipped = res.TuplesShipped
	if rep.SitesUsed == 0 {
		// Answered from the plan alone: nothing ran, nothing to charge.
		rep.Speedup = 1
		return rep, nil
	}
	if !engine.CostCapable() {
		// Presence-marker sums are not path costs; never report one.
		rep.Cost = math.Inf(1)
	}

	// Simulated clock.
	var sum time.Duration
	for _, busy := range rep.SiteBusy {
		if busy > rep.Phase1Elapsed {
			rep.Phase1Elapsed = busy
		}
		sum += busy
	}
	assembleSec := float64(rep.TuplesShipped) / c.cost.TupleRate
	assembleCompute := time.Duration(assembleSec * float64(time.Second))
	// Shipping: the interconnect carries coordinator↔site messages to
	// distinct sites concurrently, so a query pays one task round and
	// one result round of latency (the paper additionally notes that
	// "pipelining may be used" for the assembly joins), plus the
	// serialised transfer of the small result payloads.
	shipping := 2*c.cost.MessageLatency +
		time.Duration(rep.TuplesShipped)*c.cost.TupleTransfer
	rep.AssemblyElapsed = assembleCompute + shipping
	rep.ParallelElapsed = rep.Phase1Elapsed + rep.AssemblyElapsed
	rep.SequentialElapsed = sum + assembleCompute
	if rep.ParallelElapsed > 0 {
		rep.Speedup = float64(rep.SequentialElapsed) / float64(rep.ParallelElapsed)
	} else {
		rep.Speedup = 1
	}
	return rep, nil
}

// CentralizedElapsed simulates the baseline a centralized evaluation
// would need for the same query: one processor computing the
// source-restricted shortest-path fixpoint over the whole unfragmented
// graph, charged under the same cost model.
func (c *Cluster) CentralizedElapsed(ctx context.Context, source graph.NodeID, engine dsa.Engine) (time.Duration, error) {
	base := c.store.Fragmentation().Base()
	switch engine {
	case dsa.EngineDijkstra:
		reached := 0
		_, levels, _ := base.Searches(1)[0](source, true)
		for _, l := range levels {
			if l < graph.Inf {
				reached++
			}
		}
		sec := float64(reached+base.NumEdges()) / c.cost.TupleRate
		return time.Duration(sec * float64(time.Second)), nil
	case dsa.EngineSemiNaive, dsa.EngineBitset, dsa.EngineDense:
		// Charge the engine's own work units on the full graph: derived
		// tuples for the semi-naive fixpoint, derived component bits
		// for the bitset kernel, successful relaxations for the dense
		// cost kernel.
		sources := []graph.NodeID{source}
		var stats tc.Stats
		var err error
		if engine == dsa.EngineSemiNaive {
			_, stats, err = tc.ShortestFromCtx(ctx, relation.FromGraph(base), sources)
		} else {
			var kernel *tc.DenseGraph
			if kernel, err = tc.NewDenseGraph(base.CSR()); err == nil {
				run := kernel.CostFromCtx
				if engine == dsa.EngineBitset {
					run = kernel.ReachFromCtx
				}
				_, stats, err = run(ctx, sources)
			}
		}
		if err != nil {
			return 0, err
		}
		sec := float64(stats.DerivedTuples+stats.ResultTuples) / c.cost.TupleRate
		return time.Duration(sec * float64(time.Second)), nil
	}
	return 0, fmt.Errorf("sim: unknown engine %d", engine)
}
