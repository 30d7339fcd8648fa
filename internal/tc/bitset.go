package tc

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/relation"
)

// This file implements the bitset-parallel closure kernel: the first
// engine of the repository that exploits real intra-fragment
// parallelism instead of simulating it. The paper's first phase needs
// "neither communication nor synchronization" between sites; within a
// site the same property holds between independent rows of the
// condensation, and this kernel spends it on a bounded worker pool.
//
// The algorithm is the reverse-topological SCC propagation behind
// Warren-style dense closure, over the rows of a DenseGraph's CSR
// (densecost.go — the kernel numbers nothing of its own): condense the
// strongly connected components with graph.CSR.SCC, the module's one
// Tarjan, and represent the reachable-component set of each component
// as a []uint64 bit row over component space. Tarjan emits the
// components in reverse topological order, so every successor of a
// component is finished before the component itself; the row of a
// component is the word-wise OR of its successors' rows plus the
// successors' own bits (plus its own bit when the component is
// cyclic). Components are
// grouped into dependency levels (longest path to a sink in the
// condensation DAG) and each level is fanned out over a
// runtime.GOMAXPROCS-sized worker pool in chunked row ranges — rows of
// one level only read rows of strictly earlier levels, so the phase
// needs no locks, only the level barrier.

// bitsetParallelThreshold is the minimum number of rows in a level
// before the kernel bothers spinning up the pool; tiny levels are
// cheaper to close on the calling goroutine.
const bitsetParallelThreshold = 64

// bitsetChunksPerWorker over-partitions each level so the pool
// self-balances when component sizes are skewed.
const bitsetChunksPerWorker = 4

// bitsetPool runs fn over the index range [0, n) in chunked sub-ranges
// on a bounded worker pool. fn must be safe for concurrent invocation
// on disjoint ranges.
func bitsetPool(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < bitsetParallelThreshold {
		fn(0, n)
		return
	}
	chunk := (n + workers*bitsetChunksPerWorker - 1) / (workers * bitsetChunksPerWorker)
	jobs := make(chan [2]int, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		jobs <- [2]int{lo, hi}
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				fn(j[0], j[1])
			}
		}()
	}
	wg.Wait()
}

// condensation builds the distinct successor lists of the condensation
// DAG of the components SCC returned, and marks the cyclic ones: those
// whose members reach themselves (more than one member, or a self
// loop). Because comps is in reverse topological order, every successor
// of a component has a smaller component index.
func (d *DenseGraph) condensation(comps [][]int32, compOf []int32) (succs [][]int32, cyclic []bool) {
	c := d.csr
	succs = make([][]int32, len(comps))
	cyclic = make([]bool, len(comps))
	mark := make([]int32, len(comps))
	for i := range mark {
		mark[i] = -1
	}
	for ci, comp := range comps {
		cyclic[ci] = len(comp) > 1
		for _, u := range comp {
			for _, v := range c.To[c.Off[u]:c.Off[u+1]] {
				cv := compOf[v]
				if int(cv) == ci {
					cyclic[ci] = true
					continue
				}
				if mark[cv] == int32(ci) {
					continue
				}
				mark[cv] = int32(ci)
				succs[ci] = append(succs[ci], cv)
			}
		}
	}
	return succs, cyclic
}

// levelsOf groups component indices by dependency level: sinks are
// level 0, otherwise 1 + max over successors. One forward pass suffices
// because successors precede their predecessors in comps.
func levelsOf(succs [][]int32) [][]int32 {
	level := make([]int32, len(succs))
	maxLevel := int32(0)
	for ci := range succs {
		l := int32(0)
		for _, cv := range succs[ci] {
			if level[cv]+1 > l {
				l = level[cv] + 1
			}
		}
		level[ci] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	byLevel := make([][]int32, maxLevel+1)
	for ci := range level {
		byLevel[level[ci]] = append(byLevel[level[ci]], int32(ci))
	}
	return byLevel
}

// bitsetPropagate computes the reachable-component bit rows. needed
// selects the components whose rows are wanted (nil = all); rows of
// unneeded components stay nil and are skipped entirely — the
// entry-set-restricted variant of the kernel. Stats are reported in the
// kernel's own units: Iterations is the number of dependency levels
// with work (the analogue of fixpoint rounds — the longest dependency
// chain), DerivedTuples the total number of reachable-component bits
// set across all computed rows (the intermediate result size at
// component granularity).
//
// Cancellation is observed between dependency levels (the pool's
// natural barrier): a canceled ctx abandons the remaining levels and
// returns ErrCanceled.
func bitsetPropagate(ctx context.Context, succs [][]int32, cyclic []bool, needed []bool, st *Stats) ([][]uint64, error) {
	m := len(succs)
	words := (m + 63) / 64
	rows := make([][]uint64, m)
	byLevel := levelsOf(succs)
	for _, level := range byLevel {
		if ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		// Keep only the rows this call actually needs.
		var work []int32
		if needed == nil {
			work = level
		} else {
			for _, ci := range level {
				if needed[ci] {
					work = append(work, ci)
				}
			}
		}
		if len(work) == 0 {
			continue
		}
		st.Iterations++
		var derived atomic.Int64
		bitsetPool(len(work), func(lo, hi int) {
			pop := 0
			for _, ci := range work[lo:hi] {
				row := make([]uint64, words)
				for _, cv := range succs[ci] {
					row[cv>>6] |= 1 << (uint(cv) & 63)
					if sub := rows[cv]; sub != nil {
						for w := range row {
							row[w] |= sub[w]
						}
					}
				}
				if cyclic[ci] {
					row[ci>>6] |= 1 << (uint(ci) & 63)
				}
				rows[ci] = row
				for _, w := range row {
					pop += bits.OnesCount64(w)
				}
			}
			derived.Add(int64(pop))
		})
		st.DerivedTuples += int(derived.Load())
	}
	return rows, nil
}

// markNeeded flags every component reachable from the given start
// components (including the start components themselves) by iterative
// DFS over the condensation successors.
func markNeeded(succs [][]int32, starts []int32) []bool {
	needed := make([]bool, len(succs))
	var stack []int32
	for _, s := range starts {
		if !needed[s] {
			needed[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, cv := range succs[c] {
			if !needed[cv] {
				needed[cv] = true
				stack = append(stack, cv)
			}
		}
	}
	return needed
}

// reachRows is one reachability propagation from a set of CSR rows:
// the condensation's components, each row's component, and the
// reachable-component bit row of every component a source lies in. A
// source reaches every member of every component whose bit is set in
// its component's row; a cyclic component's own bit is set, so
// within-component pairs (including u→u on cycles and self loops) need
// no special case.
type reachRows struct {
	comps  [][]int32
	compOf []int32
	bits   [][]uint64
}

// reaches reports whether CSR row u reaches CSR row v.
func (rr *reachRows) reaches(u, v int32) bool {
	cv := rr.compOf[v]
	return rr.bits[rr.compOf[u]][cv>>6]&(1<<(uint(cv)&63)) != 0
}

// reach propagates from the given CSR rows, restricted to the
// components reachable from them — the kernel's analogue of the pushed
// selection in ReachableFrom: a leg's entry set is the incoming
// disconnection set, so only its "magic cone" of the condensation is
// touched. Stats.ResultTuples counts the (source, node) pairs reached.
func (d *DenseGraph) reach(ctx context.Context, entries []int32) (*reachRows, Stats, error) {
	var st Stats
	comps, compOf := d.csr.SCC()
	succs, cyclic := d.condensation(comps, compOf)
	starts := make([]int32, len(entries)) // their distinct components
	for i, u := range entries {
		starts[i] = compOf[u]
	}
	slices.Sort(starts)
	starts = slices.Compact(starts)
	bitRows, err := bitsetPropagate(ctx, succs, cyclic, markNeeded(succs, starts), &st)
	if err != nil {
		return nil, st, err
	}
	reached := make([]int, len(comps)) // member count of a start's reach
	for _, ci := range starts {
		for w, word := range bitRows[ci] {
			for ; word != 0; word &= word - 1 {
				reached[ci] += len(comps[w*64+bits.TrailingZeros64(word)])
			}
		}
	}
	for _, u := range entries {
		st.ResultTuples += reached[compOf[u]]
	}
	return &reachRows{comps: comps, compOf: compOf, bits: bitRows}, st, nil
}

// ReachFromCtx computes the nodes every distinct present source reaches
// over paths of at least one edge — the bitset kernel on the CSR the
// cost kernel runs on, so a site keeps one CSR for both — as a matrix
// in CostFromCtx's shape whose facts carry the presence marker 1, not a
// path cost: connectivity leg tables and reachability complementary
// tables carry it so assembly sums stay finite and Reachable is exact
// while Cost is meaningless (cost queries refuse the engine). Absent
// sources contribute nothing and duplicates count once, as in
// CostFromCtx. The kernel observes ctx between dependency levels and
// between destinations while it writes the bit rows out — a wide entry
// set's table is the longer half of a leg; a canceled run returns
// ErrCanceled, never a partial matrix.
func (d *DenseGraph) ReachFromCtx(ctx context.Context, sources []graph.NodeID) (*CostMatrix, Stats, error) {
	m, entries := NewCostMatrix(d.csr, sources)
	rr, st, err := d.reach(ctx, entries)
	if err != nil {
		return nil, st, err
	}
	n := len(m.Cols)
	for v := range int32(n) {
		if ctx.Err() != nil {
			return nil, st, canceled(ctx)
		}
		for i, u := range entries {
			if rr.reaches(u, v) {
				m.Cost[i*n+int(v)] = 1
			}
		}
	}
	return m, st, nil
}

// reachPairs is the kernel behind the relation-fronted wrappers: the
// (src, dst) pairs of ReachFromCtx's facts in leg-table order, by
// destination and a destination's sources in the order given, each
// node id boxed once.
func (d *DenseGraph) reachPairs(ctx context.Context, sources []graph.NodeID) (*relation.Relation, Stats, error) {
	entries := sourceIndices(d.csr, sources)
	rr, st, err := d.reach(ctx, entries)
	if err != nil {
		return nil, st, err
	}
	boxed := make([]relation.Value, len(d.csr.IDs))
	box := func(k int32) relation.Value {
		if boxed[k] == nil {
			boxed[k] = int64(d.csr.IDs[k])
		}
		return boxed[k]
	}
	tuples := make([]relation.Tuple, 0, st.ResultTuples)
	cells := make([]relation.Value, 0, 2*st.ResultTuples)
	for v := range int32(len(d.csr.IDs)) {
		if ctx.Err() != nil {
			return nil, st, canceled(ctx)
		}
		for _, u := range entries {
			if rr.reaches(u, v) {
				cells = append(cells, box(u), box(v))
				tuples = append(tuples, cells[len(cells)-2:len(cells):len(cells)])
			}
		}
	}
	out, err := relation.Adopt(tuples, pairSchema...)
	return out, st, err
}

// denseOf numbers the (src, dst) columns of the edge relation r in a
// graph — the cost column is not read — for the relation-fronted
// wrappers. Its nodes must be int64, as relation.FromGraph and
// FromEdges make them.
func denseOf(r *relation.Relation) (*DenseGraph, error) {
	if r.Arity() != 3 {
		return nil, fmt.Errorf("tc: edge relation must have arity 3 (src, dst, cost), got %d", r.Arity())
	}
	g := graph.New()
	for _, t := range r.Tuples() {
		from, ok1 := t[0].(int64)
		to, ok2 := t[1].(int64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("tc: edge %v → %v: bitset kernel nodes must be int64", t[0], t[1])
		}
		g.AddEdge(graph.Edge{From: graph.NodeID(from), To: graph.NodeID(to)})
	}
	return &DenseGraph{csr: g.CSR()}, nil
}

// BitsetClosure computes the reachability closure of the edge relation
// r with the bitset-parallel kernel: the set of (src, dst) pairs
// connected by a path of at least one edge, as SemiNaiveClosure
// derives it.
func BitsetClosure(r *relation.Relation) (*relation.Relation, Stats, error) {
	d, err := denseOf(r)
	if err != nil {
		return nil, Stats{}, err
	}
	return d.reachPairs(context.Background(), d.csr.IDs)
}

// BitsetReachableFromCtx computes the (src, dst) pairs with src in
// sources: ReachFromCtx for callers that hold an edge relation and no
// DenseGraph.
func BitsetReachableFromCtx(ctx context.Context, r *relation.Relation, sources []graph.NodeID) (*relation.Relation, Stats, error) {
	d, err := denseOf(r)
	if err != nil {
		return nil, Stats{}, err
	}
	return d.reachPairs(ctx, sources)
}
