package tc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/relation"
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

// ErrNodesNotInt64 reports that an edge relation holds non-integer node
// values, which the dense kernel cannot number. The exported wrappers
// fall back to the generic relational fixpoint instead of surfacing it.
var ErrNodesNotInt64 = errors.New("tc: dense kernel requires int64 node values")

// DenseGraph is a graph's CSR with non-negative costs, as the kernels
// read it: the cost kernel (CostFromCtx, CostVectorCtx) and the bitset
// reachability kernel (ReachFromCtx, bitset.go) run on the same arrays,
// whose rows ascend by node id — the order leg tables list their
// destinations in. Build once, query many times — the disconnection set
// approach's sites keep one per augmented fragment.
type DenseGraph struct {
	csr *graph.CSR

	// boxed[k] is row k's node id as a relation.Value, boxed on first
	// use and shared by the rows every kernel emits.
	boxOnce sync.Once
	boxed   []relation.Value
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

// on points the row at a distance slice of its own and clears it.
func (r *costRow) on(dist []float64) *costRow {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
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

// sourceIndices resolves an entry set to rows, in the order given:
// sources that are not nodes of the snapshot contribute nothing and
// duplicates count once.
func (d *DenseGraph) sourceIndices(sources []graph.NodeID) []int32 {
	var out []int32
	seen := make(map[int32]struct{}, len(sources))
	for _, s := range sources {
		k, present := d.csr.Row(s)
		if _, dup := seen[k]; !present || dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

// boxedIDs returns the node ids as the relation.Values both kernels'
// rows share, boxing them on first use.
func (d *DenseGraph) boxedIDs() []relation.Value {
	d.boxOnce.Do(func() {
		d.boxed = make([]relation.Value, len(d.csr.IDs))
		for k, id := range d.csr.IDs {
			d.boxed[k] = int64(id)
		}
	})
	return d.boxed
}

// CostFromCtx computes the minimum path cost (over paths of at least
// one edge) from every distinct present source to every node it
// reaches, as a (src, dst, cost) relation — the same answer
// ShortestFromCtx gives, in kernel time. Sources that are not nodes of
// the snapshot contribute nothing; duplicates count once. The relation
// is born in the layout every leg table has: sorted by dst in
// ascending node id (relation.NewSortedBy's mark), the
// sources of one destination in the order given. Each row is a window
// of one backing array whose node columns are the kernel's shared boxed
// ids, so a row allocates its cost and nothing else; the price is one
// float64 per (source, node) cell while the call runs. Stats are in the
// kernel's units: Iterations is the maximum frontier-round count over
// all source rows (the critical-path analogue of fixpoint rounds),
// DerivedTuples the total number of successful relaxations. Worker rows
// observe ctx between sources and between frontier rounds, and a
// canceled run returns ErrCanceled instead of a partial relation.
func (d *DenseGraph) CostFromCtx(ctx context.Context, sources []graph.NodeID) (*relation.Relation, Stats, error) {
	var st Stats
	n := len(d.csr.IDs)
	srcIdx := d.sourceIndices(sources)
	dist := make([]float64, len(srcIdx)*n)
	rounds := make([]int, len(srcIdx))
	var rows, relaxed atomic.Int64
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
			reached, r, rel := d.relaxFrom(ctx, row.on(dist[si*n:(si+1)*n]), srcIdx[si])
			rounds[si] = r
			reachedSum += reached
			relaxedSum += rel
		}
		rows.Add(int64(reachedSum))
		relaxed.Add(int64(relaxedSum))
	})
	if ctx.Err() != nil {
		return nil, st, canceled(ctx)
	}
	st.DerivedTuples = int(relaxed.Load())
	for _, r := range rounds {
		st.Iterations = max(st.Iterations, r)
	}
	boxed := d.boxedIDs()
	tuples := make([]relation.Tuple, 0, rows.Load())
	cells := make([]relation.Value, 0, 3*rows.Load())
	for v := range n { // rows ascend by node id: leg-table order
		for si, s := range srcIdx {
			if c := dist[si*n+v]; !math.IsInf(c, 1) {
				cells = append(cells, boxed[s], boxed[v], c)
				tuples = append(tuples, cells[len(cells)-3:len(cells):len(cells)])
			}
		}
	}
	out, err := relation.NewSortedBy(tuples, 1, costSchema...)
	if err != nil {
		return nil, st, err
	}
	st.ResultTuples = out.Len()
	return out, st, nil
}

// CostVectorCtx runs one propagation seeded with the given (node, cost)
// vector, allowing zero-edge paths: the result contains every node
// reachable from a seed, including the seeds themselves at (at most)
// their seed cost. Seeds that are not nodes or have a negative cost are
// ignored, as graph.CSR.ShortestPathsMulti ignores them. This is the
// pipelined chain evaluation primitive, where the running cost vector
// of the previous fragments seeds the next fragment's search. The
// propagation observes ctx between frontier rounds, and a canceled run
// returns ErrCanceled instead of a partial vector.
func (d *DenseGraph) CostVectorCtx(ctx context.Context, seed map[graph.NodeID]float64) (map[graph.NodeID]float64, error) {
	ids := d.csr.IDs
	row := newCostRow(len(ids)).on(make([]float64, len(ids)))
	for s, c := range seed {
		k, present := d.csr.Row(s)
		if !present || c < 0 {
			continue
		}
		if c < row.dist[k] {
			if math.IsInf(row.dist[k], 1) {
				row.frontier = append(row.frontier, k)
			}
			row.dist[k] = c
		}
	}
	d.propagate(ctx, row)
	if ctx.Err() != nil {
		return nil, canceled(ctx)
	}
	out := make(map[graph.NodeID]float64, len(seed))
	for k, c := range row.dist {
		if !math.IsInf(c, 1) {
			out[ids[k]] = c
		}
	}
	return out, nil
}

// denseOf unboxes an arity-3 edge relation into a graph, in tuple
// order, and wraps its CSR; without withCost the cost column is not
// read and every weight is 0. ErrNodesNotInt64 tells the callers to fall
// back to the relational fixpoint.
func denseOf(r *relation.Relation, withCost bool) (*DenseGraph, error) {
	if r.Arity() != 3 {
		return nil, fmt.Errorf("tc: edge relation must have arity 3 (src, dst, cost), got %d", r.Arity())
	}
	g := graph.New()
	for _, t := range r.Tuples() {
		from, ok1 := t[0].(int64)
		to, ok2 := t[1].(int64)
		if !ok1 || !ok2 {
			return nil, ErrNodesNotInt64
		}
		var c float64
		if withCost {
			var ok bool
			if c, ok = t[2].(float64); !ok {
				return nil, errors.New("tc: edge cost is not float64")
			}
		}
		g.AddEdge(graph.Edge{From: graph.NodeID(from), To: graph.NodeID(to), Weight: c})
	}
	return NewDenseGraph(g.CSR())
}

// DenseCostFrom computes the entry-set-restricted shortest-path costs
// of the edge relation with the dense kernel: the same (src, dst, cost)
// relation as ShortestFromCtx, at CSR+Bellman-Ford speed. Non-int64 node
// values fall back to the relational fixpoint.
func DenseCostFrom(r *relation.Relation, sources []graph.NodeID) (*relation.Relation, Stats, error) {
	var st Stats
	d, err := denseOf(r, true)
	if errors.Is(err, ErrNodesNotInt64) {
		edges, err := normalizeEdges(r)
		if err != nil {
			return nil, st, err
		}
		return shortestFixpoint(context.Background(), seedEdges(edges, sources), edges, &st)
	}
	if err != nil {
		return nil, st, err
	}
	return d.CostFromCtx(context.Background(), sources)
}

// DenseCostClosure computes the full min-cost closure (every connected
// ordered pair) with the dense kernel, the counterpart of
// ShortestClosure. Non-int64 node values fall back to the relational
// fixpoint.
func DenseCostClosure(r *relation.Relation) (*relation.Relation, Stats, error) {
	var st Stats
	d, err := denseOf(r, true)
	if errors.Is(err, ErrNodesNotInt64) {
		return ShortestClosure(r)
	}
	if err != nil {
		return nil, st, err
	}
	return d.CostFromCtx(context.Background(), d.csr.IDs)
}
