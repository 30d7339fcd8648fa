package dsa

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// LegResult is one executed leg: the site's leg table for the leg's
// entry set, of which the assembly phase joins only the exits' rows.
type LegResult struct {
	// Leg echoes the executed leg.
	Leg Leg
	// Rel is the (site, entry) leg table ExecuteLegFullCtx returns,
	// schema (src, dst, cost), sorted by dst; FinishPlan reads only the
	// rows of Leg.Exit, so a cached or remote table is passed as is.
	Rel *relation.Relation
	// Stats reports the local fixpoint work. FinishPlan charges the leg
	// the facts it selects as ResultTuples, whatever the producer
	// reported.
	Stats tc.Stats
	// Took is the site-local execution time.
	Took time.Duration
}

// SiteWork summarises one site's contribution to a query.
type SiteWork struct {
	// Legs is the number of legs the site executed.
	Legs int
	// Stats accumulates the fixpoint statistics of those legs.
	Stats tc.Stats
	// Elapsed is the site's total busy time.
	Elapsed time.Duration
}

// AssemblyStats reports the final combination phase — "effectively a
// sequence of binary joins between a number of very small relations"
// (§2.1).
type AssemblyStats struct {
	// Joins is the number of binary joins performed.
	Joins int
	// MaxOperand is the largest operand cardinality seen, substantiating
	// the "very small relations" claim.
	MaxOperand int
}

// Result is the answer to a disconnection-set query.
type Result struct {
	// Source and Target echo the query.
	Source, Target graph.NodeID
	// Reachable reports whether any path exists (along the considered
	// chains).
	Reachable bool
	// Cost is the shortest-path cost; +Inf when unreachable.
	Cost float64
	// BestChain is the fragment chain realising Cost (nil when
	// unreachable).
	BestChain []int
	// ChainsConsidered is the number of fragment chains evaluated.
	ChainsConsidered int
	// SameFragment reports the single-site fast path.
	SameFragment bool
	// Truncated propagates Plan.Truncated: chain enumeration hit the
	// MaxChains bound, so some fragment chains were never evaluated.
	// Reachable may then be a false negative and Cost is only an upper
	// bound on the true shortest-path cost; re-query with a higher
	// bound (or 0, unlimited) for an exact answer.
	Truncated bool
	// PerSite maps site IDs to their work.
	PerSite map[int]SiteWork
	// Assembly reports the final-phase joins.
	Assembly AssemblyStats
	// Elapsed is the wall-clock time of the whole query.
	Elapsed time.Duration
	// CriticalPath is the maximum single-site busy time — what the
	// elapsed time would be on truly parallel hardware with free
	// coordination.
	CriticalPath time.Duration
	// MessagesSent counts site→coordinator result shipments (the first
	// phase itself is communication-free; these are the assembly
	// inputs).
	MessagesSent int
	// TuplesShipped is the total cardinality of the shipped leg
	// results, the paper's "relatively small operands".
	TuplesShipped int
}

// PlanResult initialises the Result scaffolding RunLegs and
// QueryPipelinedEngineCtx share: the echoed query fields plus the
// source==target and no-chain fast paths. done reports that the result
// is already complete and phase 1 can be skipped; Elapsed is left to
// the caller.
func (st *Store) PlanResult(plan *Plan) (res *Result, done bool) {
	res = &Result{
		Source:           plan.Source,
		Target:           plan.Target,
		Cost:             math.Inf(1),
		SameFragment:     plan.SameFragment,
		Truncated:        plan.Truncated,
		ChainsConsidered: len(plan.Chains),
		PerSite:          make(map[int]SiteWork),
	}
	if plan.Source == plan.Target {
		res.Reachable = true
		res.Cost = 0
		if fs := st.fr.FragmentsOf(plan.Source); len(fs) > 0 {
			res.BestChain = []int{fs[0]}
		}
		return res, true
	}
	if len(plan.Chains) == 0 {
		return res, true
	}
	return res, false
}

// FinishPlan folds executed leg results into a PlanResult-initialised
// res: per-site work accounting, the critical path, and the assembly
// phase — each leg's exits selected from its table, then each chain's
// legs folded over those rows into a source-to-target cost, the
// cheapest chain winning (the first listed on ties). A leg ships what
// is selected — its exits' rows plus a zero-cost fact per exit that is
// also an entry — and that is what TuplesShipped, MaxOperand and the
// site's ResultTuples count. results must be indexed like plan.Legs;
// Elapsed is left to the caller.
//
// Relations FilterLegFacts already selected still fold to exact costs,
// but their zero-cost facts are then selected twice, as a row and for
// the entry, so those three counts may over-count by them.
func (st *Store) FinishPlan(plan *Plan, results []*LegResult, res *Result) error {
	if len(results) != len(plan.Legs) {
		return fmt.Errorf("dsa: finish: %d results for %d legs", len(results), len(plan.Legs))
	}
	sel := make([]legSelection, len(results))
	for i, lr := range results {
		if lr == nil {
			return fmt.Errorf("dsa: finish: missing result for leg %d", i)
		}
		var err error
		if sel[i], err = selectExits(lr.Rel, lr.Leg); err != nil {
			return fmt.Errorf("dsa: assemble: leg %d: %w", i, err)
		}
		w := res.PerSite[lr.Leg.SiteID]
		w.Legs++
		stats := lr.Stats
		stats.ResultTuples = sel[i].n
		w.Stats.Add(stats)
		w.Elapsed += lr.Took
		res.PerSite[lr.Leg.SiteID] = w
		res.MessagesSent++
		res.TuplesShipped += sel[i].n
	}
	for _, w := range res.PerSite {
		if w.Elapsed > res.CriticalPath {
			res.CriticalPath = w.Elapsed
		}
	}
	for ci, chain := range plan.Chains {
		cost, ok, err := assembleChain(plan, sel, ci, &res.Assembly)
		if err != nil {
			return err
		}
		if ok && cost < res.Cost {
			res.Cost = cost
			res.BestChain = chain
			res.Reachable = true
		}
	}
	return nil
}

// assembleChain folds the selected leg facts of chain ci into the cost
// from source to target along that chain: a min-plus product of the
// running (node → cost) vector with each leg's (src, dst, cost) facts
// in turn — the paper's "sequence of binary joins between a number of
// very small relations" (§2.1), one join per leg. The vector is sorted
// ids beside their costs; the exits come in ascending order, so each
// next vector is born sorted.
func assembleChain(plan *Plan, sel []legSelection, ci int, stats *AssemblyStats) (float64, bool, error) {
	ids, costs := []int64{int64(plan.Source)}, []float64{0}
	var nextIDs []int64
	var nextCosts []float64
	for _, li := range plan.chainLegs[ci] {
		leg := sel[li]
		stats.MaxOperand = max(stats.MaxOperand, leg.n, len(ids))
		stats.Joins++
		nextIDs, nextCosts = nextIDs[:0], nextCosts[:0]
		for _, s := range leg.spans {
			best, reached := 0.0, false
			next := 0 // where the previous source was found, plus one
			for _, t := range leg.rows[s.lo:s.hi] {
				src, ok1 := t[0].(int64)
				step, ok2 := t[2].(float64)
				if !ok1 || !ok2 {
					return 0, false, fmt.Errorf("dsa: assemble: leg %d fact %v is not (src int64, dst int64, cost float64)", li, t)
				}
				// Most producers list an exit's sources in ascending
				// order: try the slot after the last hit first.
				k, found := next, next < len(ids) && ids[next] == src
				if !found {
					k, found = slices.BinarySearch(ids, src)
				}
				if found {
					next = k + 1
					if cost := costs[k] + step; !reached || cost < best {
						best, reached = cost, true
					}
				}
			}
			if s.zero > 0 { // the empty path, summed as an (x, x, 0) row would be
				if k, found := slices.BinarySearch(ids, s.exit); found && (!reached || costs[k]+0 < best) {
					best, reached = costs[k]+0, true
				}
			}
			if reached {
				nextIDs = append(nextIDs, s.exit)
				nextCosts = append(nextCosts, best)
			}
		}
		if len(nextIDs) == 0 {
			return 0, false, nil // chain broken: no path through this DS
		}
		ids, nextIDs = nextIDs, ids
		costs, nextCosts = nextCosts, costs
	}
	if k, found := slices.BinarySearch(ids, int64(plan.Target)); found {
		return costs[k], true, nil
	}
	return 0, false, nil
}

// LegFunc obtains one leg's table — the only thing that differs
// between the library, the serving layer and the simulator.
type LegFunc func(ctx context.Context, leg Leg) (*LegResult, error)

// RunLegs is the one executor of a prepared plan: phase 1 per-site
// legs obtained through run, then FinishPlan. With parallel set each
// involved site runs on its own goroutine, the goroutine-per-processor
// realisation of the paper's "neither communication nor synchronization
// is required during the first phase of the computation"; otherwise
// sites run one after another in SitesInvolved order. Either way a site
// runs its legs serially in plan order and observes ctx before each, so
// a canceled query returns ErrCanceled instead of starting the
// remaining legs. The first failing site (in SitesInvolved order)
// supplies the error, and no Result is returned with one. Elapsed
// spans the call.
func (st *Store) RunLegs(ctx context.Context, plan *Plan, parallel bool, run LegFunc) (*Result, error) {
	start := time.Now()
	res, done := st.PlanResult(plan)
	if done {
		res.Elapsed = time.Since(start)
		return res, nil
	}
	results := make([]*LegResult, len(plan.Legs))
	runSite := func(siteID int) error {
		for i, leg := range plan.Legs {
			if leg.SiteID != siteID {
				continue
			}
			if ctx.Err() != nil {
				return canceledErr(ctx)
			}
			lr, err := run(ctx, leg)
			if err != nil {
				return err
			}
			results[i] = lr
		}
		return nil
	}
	sites := plan.SitesInvolved()
	errs := make([]error, len(sites))
	if parallel {
		var wg sync.WaitGroup
		for k, siteID := range sites {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = runSite(siteID)
			}()
		}
		wg.Wait()
	} else {
		for k, siteID := range sites {
			if errs[k] = runSite(siteID); errs[k] != nil {
				break
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := st.FinishPlan(plan, results, res); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunPlanCtx executes a prepared plan in this process: RunLegs over
// ExecuteLegCtx with the chosen engine. NewPlan supplies the plan for
// ordinary queries, PlanChains for external planners (package phe).
// Sites observe ctx between legs and the kernels observe it between
// fixpoint rounds / levels.
//
// The executor is mode-agnostic: whether a result's Cost is meaningful
// (it is not for EngineBitset or a ProblemReachability store, whose
// facts carry the presence marker 1) is the caller's rule — tcq.Plan
// refuses such cost requests before they reach a store.
func (st *Store) RunPlanCtx(ctx context.Context, plan *Plan, engine Engine, parallel bool) (*Result, error) {
	if !ValidEngine(engine) {
		return nil, fmt.Errorf("dsa: %w %d", ErrUnknownEngine, engine)
	}
	return st.RunLegs(ctx, plan, parallel, func(ctx context.Context, leg Leg) (*LegResult, error) {
		return st.ExecuteLegCtx(ctx, leg, engine)
	})
}

// ExecuteLegCtx executes one leg on its site with the chosen engine,
// with cancellation threaded into the engine kernels (between Dijkstra
// sources, fixpoint rounds and propagation levels). It is the unit of
// work a (real or simulated) processor performs; package sim schedules
// these across simulated sites. Rel is ExecuteLegFullCtx's table, and
// Stats.ResultTuples counts the facts the assembly will select from it
// — what the site ships to the coordinator.
func (st *Store) ExecuteLegCtx(ctx context.Context, leg Leg, engine Engine) (*LegResult, error) {
	t0 := time.Now()
	full, stats, err := st.ExecuteLegFullCtx(ctx, leg.SiteID, leg.Entry, engine)
	if err != nil {
		return nil, err
	}
	sel, err := selectExits(full, leg)
	if err != nil {
		return nil, fmt.Errorf("dsa: %w", err)
	}
	stats.ResultTuples = sel.n
	return &LegResult{Leg: leg, Rel: full, Stats: stats, Took: time.Since(t0)}, nil
}

// ExecuteLegFullCtx runs a leg engine from an entry set WITHOUT the
// exit-set selection: every (src, dst, cost) fact derivable from the
// entry nodes on the site's augmented fragment. This is the memoizable
// unit of leg execution — the expensive part of a leg depends only on
// (site, entry set, engine), while the exit set is a cheap selection
// the assembly makes in place (the table is born sorted by dst,
// whichever engine made it, so an exit is two binary searches, and the
// rows it discards are never read) — so a serving layer can cache the
// full relation under that key and hand it to every query as is. For
// EngineBitset the cost column carries the presence marker 1 (the
// relation is a connectivity table).
//
// Cancellation is threaded into the engine kernels: the per-entry
// Dijkstra loop checks ctx between sources, and the relational, bitset
// and dense kernels observe it between fixpoint rounds / propagation
// levels. A canceled leg returns ErrCanceled.
func (st *Store) ExecuteLegFullCtx(ctx context.Context, siteID int, entry []graph.NodeID, engine Engine) (*relation.Relation, tc.Stats, error) {
	if siteID < 0 || siteID >= len(st.sites) {
		return nil, tc.Stats{}, fmt.Errorf("dsa: %w: leg site %d out of range", ErrUnknownSite, siteID)
	}
	site := st.sites[siteID]
	var full *relation.Relation
	var stats tc.Stats
	var err error
	switch engine {
	case EngineDijkstra:
		// One search per entry node, each on rows of its own, read off
		// dst-major: leg-table order, which NewLegTable only verifies.
		searches := site.csr().Searches(len(entry))
		var nodes []graph.NodeID
		dists := make([][]float64, len(entry))
		srcs := make([]relation.Value, len(entry)) // boxed once per source
		for i, a := range entry {
			if ctx.Err() != nil {
				return nil, stats, canceledErr(ctx)
			}
			nodes, dists[i], _ = searches[i](a, false)
			srcs[i] = int64(a)
		}
		var rows []relation.Tuple
		for k, x := range nodes {
			for i, a := range entry {
				if d := dists[i][k]; d < graph.Inf {
					stats.DerivedTuples++
					if a != x {
						rows = append(rows, relation.Tuple{srcs[i], int64(x), d})
					}
				}
			}
		}
		full, err = NewLegTable(rows)
	case EngineSemiNaive:
		// The kernel returns a freshly owned (src, dst, cost) relation in
		// first-derivation order; adopt its rows instead of copying.
		if full, stats, err = tc.ShortestFromCtx(ctx, site.rel(), entry); err == nil {
			full, err = NewLegTable(full.Tuples())
		}
	case EngineBitset, EngineDense:
		// Both kernels run on the site's one CSR and emit the leg-table
		// layout themselves.
		kernel, kerr := site.DenseKernel()
		if kerr != nil {
			return nil, tc.Stats{}, kerr
		}
		run := kernel.CostFromCtx
		if engine == EngineBitset {
			run = kernel.ReachFromCtx
		}
		full, stats, err = run(ctx, entry)
	default:
		return nil, tc.Stats{}, fmt.Errorf("dsa: %w %d", ErrUnknownEngine, engine)
	}
	if err != nil {
		return nil, tc.Stats{}, fmt.Errorf("dsa: site %d leg: %w", site.ID, err)
	}
	stats.ResultTuples = full.Len()
	return full, stats, nil
}
