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

// LegResult is one executed leg: its exit block, the one thing the
// assembly phase folds.
type LegResult struct {
	// Leg echoes the executed leg.
	Leg Leg
	// Block is the leg's exits selected from its table
	// (SelectExits), once, by the producer — or gathered from the
	// site's border table (BorderBlockCtx).
	Block *ExitBlock
	// Rel is the benchmark harness's seam until it reads spans: a
	// (src, dst, cost) relation FinishPlan builds the block of once
	// (FactBlock) when Block is nil. No query path sets it.
	Rel *relation.Relation
	// Stats reports the local fixpoint work. FinishPlan charges the leg
	// the facts its block selects as ResultTuples, whatever the
	// producer reported.
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
// phase — each chain's legs folded over their exit blocks into a
// source-to-target cost, the cheapest chain winning (the first listed
// on ties). A leg ships what its block selects — its exits' facts plus
// a zero-cost fact per exit that is also an entry — and that is what
// TuplesShipped, MaxOperand and the site's ResultTuples count. results
// must be indexed like plan.Legs; Elapsed is left to the caller.
//
// A result without a Block has its Rel's facts built into one, once
// (FactBlock): a fact that is not a leg fact, or not from an entry
// node, is an error. Relations FilterLegFacts already selected still
// fold to exact costs, but their zero-cost facts are then selected
// twice, as a fact and for the entry, so those three counts may
// over-count by them.
func (st *Store) FinishPlan(plan *Plan, results []*LegResult, res *Result) error {
	if len(results) != len(plan.Legs) {
		return fmt.Errorf("dsa: finish: %d results for %d legs", len(results), len(plan.Legs))
	}
	blocks := make([]ExitBlock, len(results))
	widest := 0
	for i, lr := range results {
		switch {
		case lr == nil || (lr.Block == nil && lr.Rel == nil):
			return fmt.Errorf("dsa: finish: missing result for leg %d", i)
		case lr.Block != nil:
			blocks[i] = *lr.Block
		default:
			b, err := relBlock(lr.Rel, lr.Leg)
			if err != nil {
				return fmt.Errorf("dsa: assemble: leg %d: site %d: %w", i, lr.Leg.SiteID, err)
			}
			blocks[i] = *b
		}
		widest = max(widest, len(blocks[i].exits))
	}
	for i, lr := range results {
		n := blocks[i].n
		w := res.PerSite[lr.Leg.SiteID]
		w.Legs++
		stats := lr.Stats
		stats.ResultTuples = n
		w.Stats.Add(stats)
		w.Elapsed += lr.Took
		res.PerSite[lr.Leg.SiteID] = w
		res.MessagesSent++
		res.TuplesShipped += n
	}
	for _, w := range res.PerSite {
		if w.Elapsed > res.CriticalPath {
			res.CriticalPath = w.Elapsed
		}
	}
	f := newFold(widest)
	for ci, chain := range plan.Chains {
		if cost, ok := f.chain(plan, blocks, ci, &res.Assembly); ok && cost < res.Cost {
			res.Cost = cost
			res.BestChain = chain
			res.Reachable = true
		}
	}
	return nil
}

// fold is the assembly's running (node → cost) vector — sorted ids
// beside their costs — and its scratch, reused across a plan's chains.
type fold struct {
	ids, nextIDs     []graph.NodeID
	costs, nextCosts []float64
	best             []float64
}

// newFold returns a fold whose vectors hold up to widest exits (and
// the source) without growing: two allocations per call.
func newFold(widest int) fold {
	n := widest + 1
	ids, costs := make([]graph.NodeID, 2*n), make([]float64, 3*n)
	return fold{
		ids: ids[:0:n], nextIDs: ids[n : n : 2*n],
		costs: costs[:0:n], nextCosts: costs[n : n : 2*n], best: costs[2*n : 2*n : 3*n],
	}
}

// chain folds the exit blocks of chain ci into the cost from source to
// target along that chain: a min-plus product of the running vector
// with each leg's block in turn — the paper's "sequence of binary joins
// between a number of very small relations" (§2.1), one join per leg.
// Each block row finds its source's slot in the vector once per leg, so
// the inner loop is a float min over contiguous exit cells, two rows at
// a time (minPlus2); the exits ascend, so each next vector is born
// sorted.
func (f *fold) chain(plan *Plan, blocks []ExitBlock, ci int, stats *AssemblyStats) (float64, bool) {
	f.ids, f.costs = append(f.ids[:0], plan.Source), append(f.costs[:0], 0)
	for _, li := range plan.chainLegs[ci] {
		b := &blocks[li]
		stats.MaxOperand = max(stats.MaxOperand, b.n, len(f.ids))
		stats.Joins++
		best := f.best[:0]
		for j, x := range b.exits {
			v := math.Inf(1)
			if b.zero[j] { // the empty path, summed as an (x, x, 0) fact would be
				if k, found := slices.BinarySearch(f.ids, x); found {
					v = f.costs[k] + 0
				}
			}
			best = append(best, v)
		}
		f.best = best
		width := len(best)
		var held []float64 // a row waiting for a second to fold with
		var heldCost float64
		for r, src := range b.rows {
			k, found := slices.BinarySearch(f.ids, src)
			if !found {
				continue
			}
			row, cost := b.cost[r*width:(r+1)*width], f.costs[k]
			if held == nil {
				held, heldCost = row, cost
				continue
			}
			minPlus2(best, held, heldCost, row, cost)
			held = nil
		}
		if held != nil {
			minPlus2(best, held, heldCost, held, heldCost)
		}
		f.nextIDs, f.nextCosts = f.nextIDs[:0], f.nextCosts[:0]
		for j, x := range b.exits {
			if !math.IsInf(best[j], 1) {
				f.nextIDs = append(f.nextIDs, x)
				f.nextCosts = append(f.nextCosts, best[j])
			}
		}
		if len(f.nextIDs) == 0 {
			return 0, false // chain broken: no path through this DS
		}
		f.ids, f.nextIDs = f.nextIDs, f.ids
		f.costs, f.nextCosts = f.nextCosts, f.costs
	}
	if k, found := slices.BinarySearch(f.ids, plan.Target); found {
		return f.costs[k], true
	}
	return 0, false
}

// minPlus2 folds two block rows, reached at costs ca and cb, into best:
// best[j] = min(best[j], ca+a[j], cb+b[j]), reading and writing best
// once for both. min is associative, so this is folding the rows one
// after the other, bit for bit; a lone row is passed as both.
func minPlus2(best, a []float64, ca float64, b []float64, cb float64) {
	best, b = best[:len(a)], b[:len(a)]
	for j, v := range a {
		best[j] = min(best[j], ca+v, cb+b[j])
	}
}

// LegFunc obtains one leg's exit block — the only thing that differs
// between the library, the serving layer and the simulator.
type LegFunc func(ctx context.Context, leg Leg) (*LegResult, error)

// RunLegs is the one executor of a prepared plan: phase 1 per-site
// legs obtained through run, then FinishPlan. A site runs its legs
// serially in plan order and observes ctx before each, so a canceled
// query returns ErrCanceled instead of starting the remaining legs.
//
// Phase 1 needs "neither communication nor synchronization" (§2.1), so
// which goroutine runs a site is only a scheduling choice, and inline
// makes it. When inline does not hold of two or more sites, each of
// them gets a goroutine of its own, started first. The sites it holds
// of then run on the calling goroutine, in SitesInvolved order, and
// after them a lone site it does not hold of. A nil inline holds of no
// site: the paper's one processor per fragment.
//
// The first failing site (in SitesInvolved order) supplies the error,
// and no Result is returned with one. Elapsed spans the call.
func (st *Store) RunLegs(ctx context.Context, plan *Plan, run LegFunc, inline func(siteID int) bool) (*Result, error) {
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
	// fan[k] marks sites[k] as a site inline does not hold of.
	fan := make([]bool, len(sites))
	fanned := 0
	for k, siteID := range sites {
		if inline == nil || !inline(siteID) {
			fan[k] = true
			fanned++
		}
	}
	errs := make([]error, len(sites))
	var wg sync.WaitGroup
	for k, siteID := range sites {
		if fan[k] && fanned > 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = runSite(siteID)
			}()
		}
	}
	for k, siteID := range sites {
		if !fan[k] {
			errs[k] = runSite(siteID)
		}
	}
	if fanned == 1 {
		k := slices.Index(fan, true)
		errs[k] = runSite(sites[k])
	}
	wg.Wait()
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
func (st *Store) RunPlanCtx(ctx context.Context, plan *Plan, engine Engine) (*Result, error) {
	if !ValidEngine(engine) {
		return nil, fmt.Errorf("dsa: %w %d", ErrUnknownEngine, engine)
	}
	return st.RunLegs(ctx, plan, func(ctx context.Context, leg Leg) (*LegResult, error) {
		return st.ExecuteLegCtx(ctx, leg, engine)
	}, nil)
}

// ExecuteLegCtx executes one leg on its site with the chosen engine,
// with cancellation threaded into the engine kernels (between Dijkstra
// sources, fixpoint rounds, propagation levels and search buckets). It
// is the unit of work a (real or simulated) processor performs; package
// sim schedules these across simulated sites. Block is the leg's exit
// block, for the assembly to fold: a same-fragment leg's one cell from
// GoalBlockCtx's search, any other leg's exits selected from
// ExecuteLegTableCtx's table, once. Stats.ResultTuples counts the facts
// the block holds — what the site ships to the coordinator.
func (st *Store) ExecuteLegCtx(ctx context.Context, leg Leg, engine Engine) (*LegResult, error) {
	t0 := time.Now()
	block, stats, err := st.GoalBlockCtx(ctx, leg, engine)
	if block == nil && err == nil {
		var table *tc.CostMatrix
		if table, stats, err = st.ExecuteLegTableCtx(ctx, leg, engine); err == nil {
			block = SelectExits(table, leg)
		}
	}
	if err != nil {
		return nil, err
	}
	stats.ResultTuples = block.n
	return &LegResult{Leg: leg, Block: block, Stats: stats, Took: time.Since(t0)}, nil
}

// ExecuteLegTableCtx runs a leg engine from the leg's entry set
// WITHOUT the exit-set selection: the (src, dst, cost) facts derivable
// from the entry nodes on the site's augmented fragment, as a leg table
// in the site's shape on every engine (tc.NewCostMatrix over the site's
// CSR): one row per distinct entry node present on the site, in entry
// order, one column per node of the CSR. This is the memoizable unit of
// leg execution — the expensive part of a leg depends only on (site,
// entry set, engine), while the exit set is a cheap selection
// (SelectExits gathers the exits' cells, and the columns it discards
// are never read) — so a serving layer can cache the table under that
// key and select every query's exits from it. For EngineBitset a fact
// carries the presence marker 1 (the table is a connectivity table).
// Whatever the engine, a cell holds a fact iff the engine derives one:
// the dense kernel keeps a source's cycle back to itself, and the
// Dijkstra arm, whose search starts at cost 0, has no (a, a) fact.
//
// Every table is complete, whatever the exits: the dense engine's rows
// come from the level-synchronous kernel (tc.DenseGraph.CostFromCtx),
// so a first leg's row also answers its source's first legs to the
// site's other disconnection sets. A same-fragment leg needs its
// target's cell alone, which GoalBlockCtx's search answers with no
// row; a serving layer that caches by source runs this only on the
// source's second miss, and its row then serves every later target.
//
// Cancellation is threaded into the engine kernels: the per-entry
// Dijkstra loop checks ctx between sources, and the relational, bitset
// and dense kernels observe it between fixpoint rounds and propagation
// levels. A canceled leg returns ErrCanceled.
func (st *Store) ExecuteLegTableCtx(ctx context.Context, leg Leg, engine Engine) (*tc.CostMatrix, tc.Stats, error) {
	if leg.SiteID < 0 || leg.SiteID >= len(st.sites) {
		return nil, tc.Stats{}, fmt.Errorf("dsa: %w: leg site %d out of range", ErrUnknownSite, leg.SiteID)
	}
	return st.sites[leg.SiteID].legTable(ctx, leg.Entry, engine)
}

// legTable is ExecuteLegTableCtx on the site: the engine dispatch every
// leg table and border table is computed by.
func (s *Site) legTable(ctx context.Context, entry []graph.NodeID, engine Engine) (*tc.CostMatrix, tc.Stats, error) {
	var table *tc.CostMatrix
	var stats tc.Stats
	var err error
	switch engine {
	case EngineDijkstra:
		// One search per row, its distances copied in.
		c := s.csr
		var rows []int32
		table, rows = tc.NewCostMatrix(c, entry)
		search := c.Searches(1)[0]
		width := len(table.Cols)
		for r, a := range table.Rows {
			if ctx.Err() != nil {
				return nil, tc.Stats{}, canceledErr(ctx)
			}
			_, dist, _ := search(a, false, nil)
			row := table.Cost[r*width : (r+1)*width]
			copy(row, dist)
			row[rows[r]] = graph.Inf // the search's start, at cost 0
			for _, d := range row {
				if d < graph.Inf {
					stats.ResultTuples++
				}
			}
		}
		stats.DerivedTuples = stats.ResultTuples + len(rows)
	case EngineSemiNaive:
		// The kernel's relation, its facts written into the table.
		var rel *relation.Relation
		if rel, stats, err = tc.ShortestFromCtx(ctx, s.rel(), entry); err == nil {
			table, err = s.factTable(rel, entry)
		}
	case EngineBitset, EngineDense:
		// The kernels run on the site's one CSR and write the table
		// themselves.
		kernel, kerr := s.DenseKernel()
		if kerr != nil {
			return nil, tc.Stats{}, kerr
		}
		if engine == EngineBitset {
			table, stats, err = kernel.ReachFromCtx(ctx, entry)
		} else {
			table, stats, err = kernel.CostFromCtx(ctx, entry)
		}
	default:
		return nil, tc.Stats{}, fmt.Errorf("dsa: %w %d", ErrUnknownEngine, engine)
	}
	if err != nil {
		return nil, tc.Stats{}, fmt.Errorf("dsa: site %d leg: %w", s.ID, err)
	}
	return table, stats, nil
}

// factTable writes the facts of a semi-naive leg relation from entry
// into the site's table shape, indexing its rows once; a repeated
// (src, dst) pair keeps its least cost.
func (s *Site) factTable(rel *relation.Relation, entry []graph.NodeID) (*tc.CostMatrix, error) {
	c := s.csr
	table, _ := tc.NewCostMatrix(c, entry)
	rowOf := make(map[int64]int, len(table.Rows))
	for r, a := range table.Rows {
		rowOf[int64(a)] = r
	}
	width := len(table.Cols)
	for _, t := range rel.Tuples() {
		src, dst, cost, ok := legFact(t)
		r, isRow := rowOf[src]
		k, isCol := c.Row(graph.NodeID(dst))
		if !ok || !isRow || !isCol {
			return nil, fmt.Errorf("leg table: fact %v is not a fact of the leg on its site", t)
		}
		cell := &table.Cost[r*width+int(k)]
		*cell = min(*cell, cost)
	}
	return table, nil
}

// ExecuteLegFullCtx is ExecuteLegTableCtx for the leg from entry with
// no exits, whose rows are complete, as a (src, dst, cost) relation in
// leg-table order — by destination, the sources of one destination in
// entry order — for the benchmark harness, whose walker times it as the
// leg's layer.
func (st *Store) ExecuteLegFullCtx(ctx context.Context, siteID int, entry []graph.NodeID, engine Engine) (*relation.Relation, tc.Stats, error) {
	table, stats, err := st.ExecuteLegTableCtx(ctx, Leg{SiteID: siteID, Entry: entry}, engine)
	if err != nil {
		return nil, tc.Stats{}, err
	}
	return table.Relation(), stats, nil
}
