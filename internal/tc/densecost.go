package tc

import (
	"context"
	"fmt"
	"math"
	"sync"
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
//
// A leg from one source to one target needs that target's cell alone,
// so it runs a label-setting search instead (CostBetweenCtx): bucketed
// by cost, and given landmark rows by cost plus a lower bound on the
// cost still to go, it stops once the target is final and writes no
// row.

// DenseGraph is a graph's CSR with non-negative costs, as the kernels
// read it: the cost kernel (CostFromCtx, CostBetweenCtx, CostVectorCtx)
// and the bitset reachability kernel (ReachFromCtx, bitset.go) run on
// the same arrays, whose rows ascend by node id — the columns of every
// CostMatrix the kernels return. Build once, query many times — the
// disconnection set approach's sites keep one per augmented fragment.
type DenseGraph struct {
	csr *graph.CSR
	// inv is 1/Δ of the bucketed search's buckets (CostBetweenCtx)
	// and ring the number of slots they take turns in, enough for twice
	// the heaviest finite edge — a goal-directed search's reduced cost
	// — and then some: both fixed by the weights, so every search of
	// one kernel buckets alike.
	inv  float64
	ring int
	// rows holds row scratch (*costRow) between calls, so a kernel
	// reuses its own and a replaced one takes its scratch with it.
	rows sync.Pool
}

// ringCap bounds the bucketed search's buckets: where the heaviest edge
// spans more of them, Δ grows to a ringCap-th of it, and edges lighter
// than Δ are relaxed again within their bucket.
const ringCap = 1024

// NewDenseGraph wraps a graph's CSR for the kernels. Negative weights,
// which graph files may carry, are refused with ErrNegativeWeight.
func NewDenseGraph(c *graph.CSR) (*DenseGraph, error) {
	least, most := math.Inf(1), 0.0
	for _, w := range c.W {
		if w < 0 {
			return nil, fmt.Errorf("tc: %w: cost %v not supported", ErrNegativeWeight, w)
		}
		if w > 0 && w < math.Inf(1) {
			least, most = min(least, w), max(most, w)
		}
	}
	// Δ is the least positive weight, so a positive edge leaves its
	// bucket. With none, every path costs 0, and with weights so small
	// that 1/Δ overflows, every cost is below 1: Δ = 1 and bucket 0
	// holds them all.
	inv := 1.0
	if most > 0 && !math.IsInf(ringCap/most, 1) {
		inv = min(1/least, ringCap/most)
	}
	ring := 1 // a power of two, the span of twice the heaviest edge and then some
	for ring < int(2*most*inv)+3 {
		ring *= 2
	}
	return &DenseGraph{csr: c, inv: inv, ring: ring}, nil
}

// Nodes returns the number of nodes in the snapshot.
func (d *DenseGraph) Nodes() int { return len(d.csr.IDs) }

// costRow is the scratch state of one row: the distance row it writes
// and the bookkeeping of the kernel that writes it — the frontiers of
// the level-synchronous propagation, or the bucket ring and potential
// of the bucketed search. A worker reuses it from one source to the
// next, and the kernel's pool from one call to the next.
type costRow struct {
	dist     []float64
	inNext   []bool
	frontier []int32
	next     []int32
	// buckets is the bucketed search's ring: bucket b's nodes are in
	// slot b mod len(buckets). Queued nodes span fewer buckets than the
	// ring has slots, so a slot holds one bucket's nodes.
	buckets [][]int32
	// goal is the bucketed search's own state (CostBetweenCtx).
	goal potential
}

// row takes a row scratch from the kernel's pool, with the frontiers
// of the level-synchronous propagation or, for the bucketed search,
// the bucket ring; done gives it back.
func (d *DenseGraph) row(bucketed bool) *costRow {
	r, _ := d.rows.Get().(*costRow)
	if r == nil {
		r = new(costRow)
	}
	if n := d.Nodes(); !bucketed && r.inNext == nil {
		r.inNext, r.frontier, r.next = make([]bool, n), make([]int32, 0, n), make([]int32, 0, n)
	}
	if bucketed && r.buckets == nil {
		r.buckets = make([][]int32, d.ring)
	}
	return r
}

// done returns r to the kernel's pool, letting go of its distance row
// and of the frontier a canceled propagation leaves.
func (d *DenseGraph) done(r *costRow) {
	r.dist, r.frontier = nil, r.frontier[:0]
	d.rows.Put(r)
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
// matrix, and its scratch comes from the kernel's pool. Stats are in
// the kernel's units: Iterations is the maximum frontier-round count
// over all source rows (the critical-path analogue of fixpoint
// rounds), DerivedTuples the total number of successful relaxations,
// ResultTuples the facts. Worker rows observe ctx between sources and
// between frontier rounds, and a canceled run returns ErrCanceled
// instead of a partial matrix.
func (d *DenseGraph) CostFromCtx(ctx context.Context, sources []graph.NodeID) (*CostMatrix, Stats, error) {
	var st Stats
	m, srcIdx := NewCostMatrix(d.csr, sources)
	n := len(m.Cols)
	rounds := make([]int, len(srcIdx))
	var facts, relaxed atomic.Int64
	// One distance row per source; rows are independent, so chunks of
	// sources fan out over the worker pool, each chunk reusing one row
	// scratch.
	bitsetPool(len(srcIdx), func(lo, hi int) {
		row := d.row(false)
		defer d.done(row)
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

// bucket is the bucketed search's bucket of a key k ≥ 0 at 1/Δ = inv:
// ⌊k/Δ⌋.
func bucket(k, inv float64) int64 { return int64(k * inv) }

// clearBuckets empties the ring a stopped or canceled search left.
func (r *costRow) clearBuckets() {
	for i := range r.buckets {
		r.buckets[i] = r.buckets[i][:0]
	}
}

// settle runs the bucketed search of CostBetweenCtx from src toward t
// on r, draining buckets from cur on, and returns whether the row is
// complete, and its stats. Δ-stepping (Meyer & Sanders, J. Algorithms
// 2003) over the CSR, Δ the least positive weight or, if more, a
// ringCap-th of the heaviest finite one (NewDenseGraph), its buckets
// keyed by p: bucket b holds the nodes whose key k (potential.key) has
// ⌊k/Δ⌋ = b, and a node whose key is +Inf, which cannot reach t, is
// never queued. The search drains the buckets in order, relaxing a
// node's out-edges when it leaves its bucket. A key can fall below the
// bucket being drained — a zero or light edge, or the slack of the
// bound — and such a node is queued in that bucket, so a node waits in
// the bucket of its key or in the one being drained. The search stops
// after the bucket that makes t final, or when it runs out of buckets
// with the row complete, which leaves r.buckets empty; a search that
// stopped early or was canceled leaves them for the caller to clear.
func (d *DenseGraph) settle(ctx context.Context, r *costRow, src, t int32, p *potential, cur int64) (bool, Stats) {
	pushed, popped, first := 0, 0, cur
	wrapped := false
	off, to, w, dist, inv := d.csr.Off, d.csr.To, d.csr.W, r.dist, d.inv
	buckets, mask := r.buckets, int64(len(r.buckets)-1)
	inf := math.Inf(1)
	// The source's out-edges are relaxed as a node's at cost -0, whose
	// sums are the weights themselves, bit for bit.
	u, du := src, math.Copysign(0, -1)
	head := 0 // the next node of the bucket being drained
	for {
		// Relax u's out-edges. An improved node is queued in its new
		// bucket unless it waits there already: a node waits in the
		// bucket of its key, or in the one being drained, to which a
		// zero or light edge can bring it back.
		heads := to[off[u]:off[u+1]]
		costs := w[off[u]:off[u+1]]
		costs = costs[:len(heads)]
		for k, v := range heads {
			nd := du + costs[k]
			old := dist[v]
			if !(nd < old) {
				continue
			}
			dist[v] = nd
			if old == inf {
				p.reach(v)
			}
			key := p.key(v, nd)
			if key == inf {
				continue
			}
			b := bucket(key, inv)
			if old != inf && b > cur && !wrapped && bucket(p.key(v, old), inv) == b {
				continue
			}
			// A key past the ring — which the ring's size rules out but
			// for a rounding slack far above Δ — is queued in its last
			// slot, so it is popped early, and from then on no node is
			// taken to wait where its key points.
			if b = max(b, cur); b-cur > mask {
				b, wrapped = cur+mask, true
			}
			buckets[b&mask] = append(buckets[b&mask], v)
			pushed++
		}
		// Take the next node of the lowest bucket, in the order queued.
		// Past a drained bucket, stop once t is final, or with the row
		// complete once no node is queued.
		for {
			q := buckets[cur&mask]
			if head < len(q) {
				// A node that moved to a lower bucket since it was
				// queued here was relaxed from there, at the cost it
				// still has: relaxing it again changes nothing, and is
				// rarer than a test for it is dear.
				u, du = q[head], dist[q[head]]
				head++
				popped++
				break
			}
			buckets[cur&mask], head = q[:0], 0
			if pushed == popped || dist[t] < inf && bucket(dist[t], inv) <= cur || ctx.Err() != nil {
				return pushed == popped, Stats{Iterations: int(cur-first) + 1, DerivedTuples: pushed}
			}
			cur++
		}
	}
}

// goalLandmarks is how many landmark rows a goal-directed search reads
// (CostBetweenCtx): the ones that bound its source's cost to its
// target the most.
const goalLandmarks = 4

// potential is the goal-directed search's bound on the cost still to
// go, the landmark bound of ALT (Goldberg & Harrelson, SODA 2005): on a
// symmetric graph every landmark b gives d(v, t) ≥ |d(b, t) − d(b, v)|
// by the triangle inequality. A landmark's own cell holds the cost of
// a cycle back to it, not 0, since the rows hold paths of at least one
// edge; that cycle costs at most twice its distance to any node it
// reaches, so the bound holds there too. π(v), the largest such bound
// over the chosen landmark rows less a slack for rounding, is computed
// the first time the search reaches v. The rows it writes — the
// distance row the search runs on and π — are the search's scratch,
// pooled with the row: dist is +Inf between searches, and touched
// lists the cells a search reached, which is all it resets.
type potential struct {
	dist, pi []float64
	touched  []int32
	// rows are the chosen landmark rows over the CSR and at each one's
	// cell of the target.
	rows [goalLandmarks][]float64
	at   [goalLandmarks]float64
	k    int
	// slack and scale make π and the key lower bounds whatever the
	// rounding (CostBetweenCtx).
	slack, scale float64
}

// aim points p at target t from source s over the landmark matrix m,
// choosing its rows with the largest |d(b, t) − d(b, s)|; a row that
// reaches neither is never chosen. A nil matrix, or one not over c,
// leaves no landmark: π is 0.
func (p *potential) aim(m *CostMatrix, c *graph.CSR, s, t int32) {
	// The slack covers the rounding of the landmark rows, each cell a
	// sum of fewer than n rounded terms, and of π's own arithmetic;
	// scale that of a key's sum and of the rest of the path, which
	// takes fewer than n more rounded sums (CostBetweenCtx).
	const eps = 0x1p-53
	n := len(c.IDs)
	p.slack, p.scale, p.k = float64(2*n+8)*eps, 1-float64(n+4)*eps, 0
	if m == nil || len(m.Cols) != n || n == 0 || &m.Cols[0] != &c.IDs[0] {
		return
	}
	var score [goalLandmarks]float64
	for i := range m.Rows {
		row := m.Cost[i*n : (i+1)*n]
		sc := math.Abs(row[t] - row[s])
		if math.IsNaN(sc) {
			continue
		}
		j := p.k
		if j < goalLandmarks {
			p.k++
		} else if sc <= score[j-1] {
			continue
		} else {
			j--
		}
		for ; j > 0 && score[j-1] < sc; j-- {
			score[j], p.rows[j], p.at[j] = score[j-1], p.rows[j-1], p.at[j-1]
		}
		score[j], p.rows[j], p.at[j] = sc, row, row[t]
	}
}

// reach computes π(v), the first time the search reaches v.
func (p *potential) reach(v int32) {
	p.touched = append(p.touched, v)
	pi, inf := 0.0, math.Inf(1)
	for i := range p.k {
		at, dv := p.at[i], p.rows[i][v]
		switch {
		case at == inf && dv == inf:
			continue // the landmark reaches neither: no bound
		case at == inf || dv == inf:
			// One of v and t is in the landmark's component and the
			// other is not, so v does not reach t.
			p.pi[v] = inf
			return
		}
		pi = max(pi, math.Abs(at-dv)-p.slack*(at+dv))
	}
	p.pi[v] = pi
}

// key is the bucket key of a reached node v at cost c: a lower bound
// on the cost of any path to the target through v at that cost, +Inf
// if v does not reach it.
func (p *potential) key(v int32, c float64) float64 {
	return (c+p.pi[v])*p.scale - math.SmallestNonzeroFloat64
}

// CostBetweenCtx returns the cost from source to target over paths of
// at least one edge — the target's cell of CostFromCtx's row, bit for
// bit — by a bucketed label-setting search (settle) that stops once
// the target's bucket is drained: a leg needs its exit's cell only
// (§2.1), and on a large site it is settled long before the whole row
// is. With no landmarks its buckets are keyed by cost, and it settles
// the nodes cheaper than the target. Given landmarks it runs
// goal-directed: its buckets are keyed by a node's cost plus π, a
// lower bound on the cost from it to the target read off the landmark
// rows (potential), so it settles the nodes toward the target first.
// landmarks is a leg table over this kernel's CSR, such as a site's
// border table (its rows the landmarks, at most goalLandmarks of them
// chosen per query); the bound holds only on a symmetric graph, where
// every edge's reverse has its least weight, so the caller passes
// landmarks only for one. A nil table, or one over another CSR, gives
// the search with no bound, exact on any graph. A source or target
// that is not a node of the snapshot costs +Inf.
//
// The answer is exact whatever the rounding. A key is a lower bound on
// the rounded cost of any path to the target through its node at its
// cost: along a simple path of k < n edges rounded sums lose at most a
// factor (1−ε)^k of the exact sum, the landmark cells — themselves
// such sums — are off their exact distances by at most a factor
// 1 ± 1.01nε, and π's slack of (2n+8)ε times the two cells it reads,
// with a key's scale of 1 − (n+4)ε and its last subtraction of the
// least subnormal, cover both and the arithmetic of π and of the key
// (n the snapshot's nodes, ε = 2⁻⁵³). A node whose key falls below the
// bucket being drained — the slack makes π only nearly consistent — is
// queued in that bucket, so every node whose cost can still fall waits
// in a bucket no higher than its key's. Once the target's bucket is
// drained, every waiting node's key lies above the target's cost, so
// no path through it is cheaper, and the target's cost is the least
// fixpoint CostFromCtx computes.
//
// The distance and π rows come from the kernel's pool and are reset
// cell by cell, so the search allocates nothing after its first use.
// Stats: Iterations is the number of buckets drained, from the
// source's, DerivedTuples the nodes queued, ResultTuples the nodes
// reached. The search observes ctx between buckets, and a canceled
// search returns ErrCanceled.
func (d *DenseGraph) CostBetweenCtx(ctx context.Context, source, target graph.NodeID, landmarks *CostMatrix) (float64, Stats, error) {
	inf := math.Inf(1)
	s, okS := d.csr.Row(source)
	t, okT := d.csr.Row(target)
	if !okS || !okT {
		return inf, Stats{}, nil
	}
	r := d.row(true)
	defer d.done(r)
	p := &r.goal
	if p.dist == nil {
		p.dist, p.pi = infs(d.Nodes()), make([]float64, d.Nodes())
	}
	p.aim(landmarks, d.csr, s, t)
	r.dist = p.dist
	// The source is relaxed at cost 0, its key's bucket the first.
	p.reach(s)
	cost, st, complete := inf, Stats{}, true
	if key := p.key(s, 0); key < inf {
		complete, st = d.settle(ctx, r, s, t, p, bucket(key, d.inv))
		cost = p.dist[t]
	}
	for _, v := range p.touched {
		p.dist[v] = inf
	}
	st.ResultTuples, p.touched = len(p.touched)-1, p.touched[:0]
	p.rows = [goalLandmarks][]float64{} // the pool holds no table
	if !complete {
		r.clearBuckets()
	}
	if ctx.Err() != nil {
		return inf, Stats{}, canceled(ctx)
	}
	return cost, st, nil
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
	row := d.row(false).on(seed)
	defer d.done(row)
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
