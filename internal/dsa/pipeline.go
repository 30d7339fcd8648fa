package dsa

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
)

// QueryPipelinedEngineCtx answers a shortest-path query with pipelined
// chain evaluation — the §2.1 remark "pipelining may be used for their
// computation" made concrete. Instead of every site computing all
// entry→exit pairs independently (which phase-1 parallelism requires),
// the legs of each chain run in sequence and each leg's search is
// seeded with the running cost vector of the previous legs: one
// multi-source search per leg, regardless of disconnection-set size.
//
// The trade-off against RunPlanCtx is the paper's own: pipelining
// removes the redundant per-entry work (better on one processor or when
// "the issue of fragment size [balance] becomes less relevant"), but
// serialises the chain, so it cannot exploit one-processor-per-fragment
// parallelism within a single query.
//
// Pipelined legs are seeded with the running cost vector, so only the
// engines with a vector-seeded multi-source primitive qualify
// (Engine.VectorSeeded): EngineDijkstra (graph.CSR.ShortestPathsMulti)
// and EngineDense (the CSR kernel's CostVectorCtx). The relational and
// bitset engines are refused. The chain walk observes ctx between legs
// and the dense kernel between frontier rounds, so a canceled query
// returns ErrCanceled promptly.
func (st *Store) QueryPipelinedEngineCtx(ctx context.Context, source, target graph.NodeID, engine Engine) (*Result, error) {
	if st.problem != ProblemShortestPath {
		return nil, fmt.Errorf("dsa: %w: store precomputed for reachability cannot answer cost queries", ErrProblemMismatch)
	}
	if !engine.VectorSeeded() {
		return nil, fmt.Errorf("dsa: %w: pipelined evaluation needs a vector-seeded engine (%s), not %v", ErrEngineMismatch, EngineNames(Engine.VectorSeeded), engine)
	}
	res, _, err := st.walkChains(ctx, source, target, engine)
	return res, err
}

// legTree is what one walked leg's search leaves behind: the cost of
// every node it reached and, on the graph engine, its predecessor on
// the way there. Seeds have no predecessor unless another seed reaches
// them more cheaply. The dense kernel reports costs only.
type legTree struct {
	dist map[graph.NodeID]float64
	pred map[graph.NodeID]graph.NodeID
}

// walkChains is the pipelined evaluator: it plans the query, walks each
// chain with pipelineChain and keeps the cheapest (the first listed on
// ties), returning that chain's per-leg search trees beside the result
// — nil when no search ran (source == target, or no chain reaches the
// target). QueryPipelinedEngineCtx wants the result, QueryPath the
// trees as well.
func (st *Store) walkChains(ctx context.Context, source, target graph.NodeID, engine Engine) (*Result, []legTree, error) {
	start := time.Now()
	plan, err := st.NewPlan(source, target)
	if err != nil {
		return nil, nil, err
	}
	res, done := st.PlanResult(plan)
	if done {
		res.Elapsed = time.Since(start)
		return res, nil, nil
	}
	var best []legTree
	for _, chain := range plan.Chains {
		trees, err := st.pipelineChain(ctx, source, target, chain, engine, res)
		if err != nil {
			return nil, nil, err
		}
		if trees == nil {
			continue
		}
		if cost := trees[len(trees)-1].dist[target]; cost < res.Cost {
			res.Cost = cost
			res.BestChain = chain
			res.Reachable = true
			best = trees
		}
	}
	res.Elapsed = time.Since(start)
	return res, best, nil
}

// pipelineChain folds one chain with vector-seeded multi-source
// searches, one per leg, and returns the legs' search trees; the last
// one holds the cost at the target. A chain that does not reach the
// target returns nil.
func (st *Store) pipelineChain(ctx context.Context, source, target graph.NodeID, chain []int, engine Engine, res *Result) ([]legTree, error) {
	trees := make([]legTree, 0, len(chain))
	vector := map[graph.NodeID]float64{source: 0}
	for i, fragID := range chain {
		if ctx.Err() != nil {
			return nil, canceledErr(ctx)
		}
		site := st.sites[fragID]
		t0 := time.Now()
		var tree legTree
		if engine == EngineDense {
			kernel, err := site.DenseKernel()
			if err != nil {
				return nil, err
			}
			tree.dist, err = kernel.CostVectorCtx(ctx, vector)
			if err != nil {
				return nil, err
			}
		} else {
			tree.dist, tree.pred = site.csr().ShortestPathsMulti(vector)
		}
		trees = append(trees, tree)

		var exits []graph.NodeID
		if i+1 < len(chain) {
			exits = st.fr.DisconnectionSet(fragID, chain[i+1])
		} else {
			exits = []graph.NodeID{target}
		}
		next := make(map[graph.NodeID]float64, len(exits))
		for _, x := range exits {
			if d, ok := tree.dist[x]; ok {
				next[x] = d
			}
		}
		w := res.PerSite[fragID]
		w.Legs++
		w.Stats.DerivedTuples += len(tree.dist)
		w.Stats.ResultTuples += len(next)
		w.Elapsed += time.Since(t0)
		res.PerSite[fragID] = w
		res.MessagesSent++
		res.TuplesShipped += len(next)

		if len(next) == 0 {
			return nil, nil
		}
		vector = next
	}
	return trees, nil
}
