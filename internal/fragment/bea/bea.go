// Package bea implements the bond-energy fragmentation algorithm of
// ICDE'93 §3.2, the variant "that focuses on fragmenting a relation in
// such a way that the node intersections of fragments will be small".
//
// The algorithm is a variant of the classic bond-energy algorithm of
// McCormick, Schweitzer and White (paper reference [7]): the adjacency
// matrix of the graph (with a 1 diagonal) has its columns reordered so
// that closely related nodes become contiguous, forming clusters along
// the diagonal; the reordered matrix is then split into blocks of
// contiguous columns, choosing split points where few 1's fall outside
// the blocks — those outside 1's "are the connections with other
// fragments; their number indicates the size of the disconnection
// sets".
//
// The paper implements the threshold splitting rule ("it is split as
// soon as the number of connections to nodes outside the current block
// reaches the threshold", with a minimum-edges finetuning so fragments
// are not "too small"); the local-minimum rule it considered and
// rejected is also provided for the ablation experiments.
package bea

import (
	"fmt"

	"repro/internal/fragment"
	"repro/internal/graph"
)

// Mode selects the split rule applied while scanning the reordered
// matrix left to right.
type Mode int

const (
	// ThresholdMode splits as soon as the outside-connection count of
	// the current block comes down to Options.Threshold (the paper's
	// choice). The rule is presented in §3.2 as the robust alternative
	// to splitting at every local minimum: a low outside count means
	// the block has become well separated from the rest of the matrix,
	// which on transportation graphs happens exactly at the sparse
	// cluster boundaries.
	ThresholdMode Mode = iota
	// LocalMinimumMode splits as soon as the outside-connection count
	// increases — "as optimizing to local minima usually turns out not
	// to be best" the paper rejected it, but it is kept for comparison.
	LocalMinimumMode
)

// Options configures the algorithm.
type Options struct {
	// Threshold is the outside-connection count at or below which the
	// current block is split off in ThresholdMode ("this threshold may
	// be supplied by the user"). Zero selects 3, which on the paper's
	// transportation graphs (2–3 inter-cluster connections per border)
	// cuts at the cluster boundaries.
	Threshold int
	// MinBlockEdges is the finetuning of §3.2: a split is deferred
	// until the current block contains at least this many (directed)
	// internal connections, avoiding fragments that are "too small".
	// Zero disables the finetuning.
	MinBlockEdges int
	// Mode selects the split rule.
	Mode Mode
	// Starts bounds how many starting columns the reordering phase
	// tries ("it has to be iterated over all the columns"); zero tries
	// all of them. Large graphs may cap this for speed.
	Starts int
}

// withDefaults validates and fills defaults.
func (o Options) withDefaults(g *graph.Graph) (Options, error) {
	if o.Threshold == 0 {
		o.Threshold = 3
	}
	if o.Threshold < 0 {
		return o, fmt.Errorf("bea: Threshold must be positive, got %d", o.Threshold)
	}
	if o.MinBlockEdges < 0 {
		return o, fmt.Errorf("bea: MinBlockEdges must be non-negative, got %d", o.MinBlockEdges)
	}
	if o.Starts < 0 {
		return o, fmt.Errorf("bea: Starts must be non-negative, got %d", o.Starts)
	}
	if o.Mode != ThresholdMode && o.Mode != LocalMinimumMode {
		return o, fmt.Errorf("bea: unknown mode %d", o.Mode)
	}
	return o, nil
}

// Matrix is the adjacency matrix view the algorithm works on: Cols[i]
// is the node of column i, M[i][j] is 1 (true) iff nodes Cols[i] and
// Cols[j] are directly connected (in either direction) or i == j (the
// paper sets every M[i,i] to 1).
type Matrix struct {
	Cols []graph.NodeID
	M    [][]bool
}

// BuildMatrix constructs the adjacency matrix of g with columns in
// ascending node order.
func BuildMatrix(g *graph.Graph) *Matrix {
	cols := g.Nodes()
	idx := make(map[graph.NodeID]int, len(cols))
	for i, id := range cols {
		idx[id] = i
	}
	m := make([][]bool, len(cols))
	for i := range m {
		m[i] = make([]bool, len(cols))
		m[i][i] = true
	}
	for _, e := range g.Edges() {
		i, j := idx[e.From], idx[e.To]
		m[i][j] = true
		m[j][i] = true
	}
	return &Matrix{Cols: cols, M: m}
}

// InnerProduct returns the inner product of columns i and j — the bond
// of the bond-energy measure: Σ_k M[k][i]·M[k][j].
func (mx *Matrix) InnerProduct(i, j int) int {
	sum := 0
	for k := range mx.M {
		if mx.M[k][i] && mx.M[k][j] {
			sum++
		}
	}
	return sum
}

// bondTable precomputes all pairwise inner products.
func (mx *Matrix) bondTable() [][]int {
	n := len(mx.Cols)
	b := make([][]int, n)
	for i := 0; i < n; i++ {
		b[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := mx.InnerProduct(i, j)
			b[i][j], b[j][i] = v, v
		}
	}
	return b
}

// Reorder computes the bond-energy column ordering: starting from each
// candidate first column, it repeatedly inserts the (column, position)
// pair maximising the global measure — the sum of inner products of
// adjacent placed columns — and returns the best permutation found
// (column indices into mx.Cols) together with its measure.
//
// starts = 0 tries every column as the first placement, as the paper
// prescribes; otherwise the first 'starts' columns are tried.
func (mx *Matrix) Reorder(starts int) ([]int, int) {
	n := len(mx.Cols)
	if n == 0 {
		return nil, 0
	}
	bond := mx.bondTable()
	if starts <= 0 || starts > n {
		starts = n
	}
	var bestPerm []int
	bestMeasure := -1
	for s := 0; s < starts; s++ {
		perm, measure := greedyFrom(bond, n, s)
		if measure > bestMeasure {
			bestMeasure = measure
			bestPerm = perm
		}
	}
	return bestPerm, bestMeasure
}

// greedyFrom runs one greedy placement starting with column s and
// returns the permutation and its measure.
func greedyFrom(bond [][]int, n, s int) ([]int, int) {
	placed := make([]int, 1, n)
	placed[0] = s
	used := make([]bool, n)
	used[s] = true
	measure := 0
	for len(placed) < n {
		bestGain, bestCol, bestGap := -1<<62, -1, -1
		for c := 0; c < n; c++ {
			if used[c] {
				continue
			}
			// Gap g means inserting before placed[g]; g = len(placed)
			// appends at the right end.
			for g := 0; g <= len(placed); g++ {
				gain := insertionGain(bond, placed, c, g)
				if gain > bestGain {
					bestGain, bestCol, bestGap = gain, c, g
				}
			}
		}
		placed = append(placed, 0)
		copy(placed[bestGap+1:], placed[bestGap:])
		placed[bestGap] = bestCol
		used[bestCol] = true
		measure += bestGain
	}
	return placed, measure
}

// insertionGain is the change of the adjacency-bond measure when
// inserting column c at gap g of the placed sequence: the new bonds to
// its neighbours minus the bond the insertion breaks.
func insertionGain(bond [][]int, placed []int, c, g int) int {
	var left, right int = -1, -1
	if g > 0 {
		left = placed[g-1]
	}
	if g < len(placed) {
		right = placed[g]
	}
	gain := 0
	if left >= 0 {
		gain += bond[left][c]
	}
	if right >= 0 {
		gain += bond[c][right]
	}
	if left >= 0 && right >= 0 {
		gain -= bond[left][right]
	}
	return gain
}

// OutsideConnections counts, for the block of permutation positions
// [a, b), the 1's of the block's columns that fall outside the block's
// rows — the paper's measure of the connections between a candidate
// fragment and the rest of the graph (Fig. 5). The diagonal never
// contributes.
func (mx *Matrix) OutsideConnections(perm []int, a, b int) int {
	count := 0
	inBlock := make(map[int]bool, b-a)
	for p := a; p < b; p++ {
		inBlock[perm[p]] = true
	}
	for p := a; p < b; p++ {
		c := perm[p]
		for r := range mx.M {
			if mx.M[r][c] && r != c && !inBlock[r] {
				count++
			}
		}
	}
	return count
}

// insideConnections counts the off-diagonal 1's within the block — the
// "number of edges in the current block" of the finetuning rule.
func (mx *Matrix) insideConnections(perm []int, a, b int) int {
	count := 0
	inBlock := make(map[int]bool, b-a)
	for p := a; p < b; p++ {
		inBlock[perm[p]] = true
	}
	for p := a; p < b; p++ {
		c := perm[p]
		for r := range mx.M {
			if mx.M[r][c] && r != c && inBlock[r] {
				count++
			}
		}
	}
	return count
}

// SplitPoints scans the reordered matrix once from left to right and
// returns the block boundaries [0, s1, s2, …, n] per the configured
// split rule. ThresholdMode closes the block after the column that
// brought the outside count down to the threshold; LocalMinimumMode
// closes it before the column that made the count rise (the minimum
// itself stays in the block).
func SplitPoints(mx *Matrix, perm []int, opt Options) []int {
	n := len(perm)
	bounds := []int{0}
	start := 0
	prevOut := -1
	for i := 0; i < n; {
		out := mx.OutsideConnections(perm, start, i+1)
		switch opt.Mode {
		case ThresholdMode:
			if out <= opt.Threshold && i+1 < n &&
				(opt.MinBlockEdges == 0 || mx.insideConnections(perm, start, i+1) >= opt.MinBlockEdges) {
				bounds = append(bounds, i+1)
				start = i + 1
				prevOut = -1
				i++
				continue
			}
		case LocalMinimumMode:
			if prevOut >= 0 && out > prevOut && i > start &&
				(opt.MinBlockEdges == 0 || mx.insideConnections(perm, start, i) >= opt.MinBlockEdges) {
				bounds = append(bounds, i)
				start = i
				prevOut = -1
				continue // re-examine column i as the new block's first
			}
		}
		prevOut = out
		i++
	}
	return append(bounds, n)
}

// Fragment runs the full bond-energy pipeline on g: build the
// adjacency matrix, reorder by bond energy, split by the configured
// rule, and turn the node blocks into an edge partition. An edge
// between two blocks is assigned to the block of its earlier-placed
// endpoint; its later endpoint thereby joins both fragments' node sets
// and hence the disconnection set, which is exactly the outside-1's
// counting of the paper. Blocks that end up with no edges are dropped
// ("there is a slight variation in number of fragments possible").
func Fragment(g *graph.Graph, opt Options) (*fragment.Fragmentation, error) {
	opt, err := opt.withDefaults(g)
	if err != nil {
		return nil, err
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("bea: graph has no edges")
	}
	mx := BuildMatrix(g)
	perm, _ := mx.Reorder(opt.Starts)
	bounds := SplitPoints(mx, perm, opt)

	// blockOf maps each node to its block index.
	blockOf := make(map[graph.NodeID]int, len(perm))
	for b := 0; b+1 < len(bounds); b++ {
		for p := bounds[b]; p < bounds[b+1]; p++ {
			blockOf[mx.Cols[perm[p]]] = b
		}
	}
	// posOf maps each node to its permutation position, to find the
	// earlier-placed endpoint of a cross edge.
	posOf := make(map[graph.NodeID]int, len(perm))
	for p, c := range perm {
		posOf[mx.Cols[c]] = p
	}

	sets := make([][]graph.Edge, len(bounds)-1)
	for _, e := range g.Edges() {
		b := blockOf[e.From]
		if posOf[e.To] < posOf[e.From] {
			b = blockOf[e.To]
		}
		sets[b] = append(sets[b], e)
	}
	// Drop empty blocks.
	nonEmpty := sets[:0]
	for _, s := range sets {
		if len(s) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	return fragment.New(g, nonEmpty)
}
