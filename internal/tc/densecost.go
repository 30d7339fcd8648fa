package tc

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/graph"
)

// This file implements the dense cost-query kernel: the cost-capable
// counterpart of the bitset reachability kernel. Where the relational
// min-cost fixpoint hashes interface{} tuples per derived path per
// round, this kernel reads a graph's CSR (graph.CSR: dense int32 rows
// in ascending node id, a parallel float64 weight array) and answers
// entry-set-restricted shortest-path cost queries with
// level-synchronous Bellman-Ford: each round relaxes the out-edges of
// the improved frontier, and only strictly improved nodes enter the
// next frontier. With non-negative weights the frontier drains after at
// most diameter-many rounds (the paper's own fixpoint bound, §2.1), so
// a fragment leg costs O(rounds × frontier edges) array work instead of
// hash joins.
//
// One propagation pass serves a whole entry set: every distinct source
// gets its own distance row, and the rows — mutually independent — are
// fanned out over the GOMAXPROCS worker pool of bitset.go, the dense
// analogue of "neither communication nor synchronization is required"
// between per-source searches.

// DenseGraph is a graph's CSR with non-negative costs, as the kernels
// read it: the cost kernel (CostFromCtx, CostVectorCtx) and the bitset
// reachability kernel (ReachFromCtx, bitset.go) run on the same arrays,
// whose rows ascend by node id — the columns of every CostMatrix the
// kernels return. Build once, query many times — the disconnection set
// approach's sites keep one per augmented fragment.
type DenseGraph struct {
	csr *graph.CSR
}

// NewDenseGraph wraps a graph's CSR for the kernels. Negative weights,
// which graph files may carry, are refused with ErrNegativeWeight.
func NewDenseGraph(c *graph.CSR) (*DenseGraph, error) {
	for _, w := range c.W {
		if w < 0 {
			return nil, fmt.Errorf("tc: %w: cost %v not supported", ErrNegativeWeight, w)
		}
	}
	return &DenseGraph{csr: c}, nil
}

// Nodes returns the number of nodes in the snapshot.
func (d *DenseGraph) Nodes() int { return len(d.csr.IDs) }

// Edges returns the number of edges (parallel edges kept — relaxation
// takes the minimum naturally).
func (d *DenseGraph) Edges() int { return len(d.csr.To) }

// costRow is the scratch state of one propagation: the distance row it
// writes and the frontier bookkeeping, which a worker reuses from one
// source to the next.
type costRow struct {
	dist     []float64
	inNext   []bool
	frontier []int32
	next     []int32
}

func newCostRow(n int) *costRow {
	return &costRow{inNext: make([]bool, n), frontier: make([]int32, 0, n), next: make([]int32, 0, n)}
}

// on points the row at a distance slice of its own, every cell +Inf.
func (r *costRow) on(dist []float64) *costRow {
	r.dist = dist
	return r
}

// relaxFrom seeds the row with the out-edges of src (paths of at least
// one edge, matching ShortestFromCtx's semantics) and runs the frontier
// iteration. It returns the number of nodes reached, the number of
// rounds and the number of successful relaxations.
func (d *DenseGraph) relaxFrom(ctx context.Context, r *costRow, src int32) (reached, rounds, relaxed int) {
	r.frontier = r.frontier[:0]
	c := d.csr
	for k := c.Off[src]; k < c.Off[src+1]; k++ {
		v, w := c.To[k], c.W[k]
		if w < r.dist[v] {
			if math.IsInf(r.dist[v], 1) {
				r.frontier = append(r.frontier, v)
				reached++
			}
			r.dist[v] = w
			relaxed++
		}
	}
	more, rounds, relaxed2 := d.propagate(ctx, r)
	return reached + more, rounds, relaxed + relaxed2
}

// propagate drains the frontier: each round relaxes the out-edges of
// every frontier node; strictly improved nodes form the next frontier.
// It returns the number of nodes reached for the first time, of rounds
// and of successful relaxations. A canceled ctx stops the iteration
// between rounds with a partial row; the callers surface ErrCanceled
// and discard the result.
func (d *DenseGraph) propagate(ctx context.Context, r *costRow) (reached, rounds, relaxed int) {
	c := d.csr
	for len(r.frontier) > 0 && ctx.Err() == nil {
		rounds++
		r.next = r.next[:0]
		for _, u := range r.frontier {
			du := r.dist[u]
			for k := c.Off[u]; k < c.Off[u+1]; k++ {
				v := c.To[k]
				nd := du + c.W[k]
				if nd < r.dist[v] {
					if math.IsInf(r.dist[v], 1) {
						reached++
					}
					r.dist[v] = nd
					relaxed++
					if !r.inNext[v] {
						r.inNext[v] = true
						r.next = append(r.next, v)
					}
				}
			}
		}
		for _, v := range r.next {
			r.inNext[v] = false
		}
		r.frontier, r.next = r.next, r.frontier
	}
	return reached, rounds, relaxed
}

// CostFromCtx computes the minimum path cost (over paths of at least
// one edge) from every distinct present source to every node it
// reaches — the same facts ShortestFromCtx derives, in kernel time — as
// the matrix of the distance rows the propagation writes: one row per
// distinct present source in the order given, the CSR's IDs as columns.
// Sources that are not nodes of the snapshot contribute nothing;
// duplicates count once. Nothing is boxed: the call allocates the
// matrix and its scratch. Stats are in the kernel's units: Iterations
// is the maximum frontier-round count over all source rows (the
// critical-path analogue of fixpoint rounds), DerivedTuples the total
// number of successful relaxations, ResultTuples the facts. Worker rows
// observe ctx between sources and between frontier rounds, and a
// canceled run returns ErrCanceled instead of a partial matrix.
func (d *DenseGraph) CostFromCtx(ctx context.Context, sources []graph.NodeID) (*CostMatrix, Stats, error) {
	var st Stats
	m, srcIdx := NewCostMatrix(d.csr, sources)
	n := len(m.Cols)
	rounds := make([]int, len(srcIdx))
	var facts, relaxed atomic.Int64
	// One distance row per source; rows are independent, so chunks of
	// sources fan out over the worker pool, each chunk reusing one
	// frontier scratch.
	bitsetPool(len(srcIdx), func(lo, hi int) {
		row := newCostRow(n)
		reachedSum, relaxedSum := 0, 0
		for si := lo; si < hi; si++ {
			if ctx.Err() != nil {
				return
			}
			reached, r, rel := d.relaxFrom(ctx, row.on(m.Cost[si*n:(si+1)*n]), srcIdx[si])
			rounds[si] = r
			reachedSum += reached
			relaxedSum += rel
		}
		facts.Add(int64(reachedSum))
		relaxed.Add(int64(relaxedSum))
	})
	if ctx.Err() != nil {
		return nil, st, canceled(ctx)
	}
	st.DerivedTuples = int(relaxed.Load())
	st.ResultTuples = int(facts.Load())
	for _, r := range rounds {
		st.Iterations = max(st.Iterations, r)
	}
	return m, st, nil
}

// CostVectorCtx runs one propagation from a seed row, allowing
// zero-edge paths. seed is a distance row over the kernel's CSR, one
// cell per row (Nodes()); +Inf marks a row that is not a seed, and
// negative or non-finite costs are ignored as well, as
// graph.CSR.SeededSearch ignores them. It propagates in place and
// returns seed as the distance row: every row reachable from a seed
// holds its cost, each seed at most its seed cost, the rest +Inf. This
// is the pipelined chain evaluation primitive, where the exits the
// previous leg reached seed the next site's row. The propagation
// observes ctx between frontier rounds, and a canceled run returns nil
// and ErrCanceled, never the partial row it leaves in seed.
func (d *DenseGraph) CostVectorCtx(ctx context.Context, seed []float64) ([]float64, error) {
	row := newCostRow(len(seed)).on(seed)
	for k, c := range seed {
		if c >= 0 && c < math.Inf(1) {
			row.frontier = append(row.frontier, int32(k))
		} else {
			seed[k] = math.Inf(1)
		}
	}
	d.propagate(ctx, row)
	if ctx.Err() != nil {
		return nil, canceled(ctx)
	}
	return seed, nil
}
