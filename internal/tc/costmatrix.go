package tc

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/relation"
)

// CostMatrix is a leg table in dense form — the currency between the
// paper's two phases: one closure per fragment in the first, "a
// sequence of binary joins between a number of very small relations"
// in the second (§2.1). Cell (r, c) is the fact (Rows[r], Cols[c],
// cost): the least path cost for the cost kernels, the presence marker
// 1 for the bitset kernel, and +Inf where there is no fact. Every cell
// is final: the kernels write whole rows. A matrix is not written once
// built, so a cache can hand one to any number of readers.
type CostMatrix struct {
	// Rows are the sources, distinct.
	Rows []graph.NodeID
	// Cols are the destinations, distinct and ascending. A leg table
	// shares its CSR's IDs (NewCostMatrix), so it owns no column of its
	// own.
	Cols []graph.NodeID
	// Cost holds the cells row after row: Cost[r*len(Cols)+c].
	Cost []float64
}

// matrixHeader is the size of a CostMatrix value: three slice headers.
const matrixHeader = 72

// sourceIndices resolves an entry set to CSR rows, in the order given:
// sources that are not nodes of the snapshot contribute nothing and
// duplicates count once.
func sourceIndices(c *graph.CSR, sources []graph.NodeID) []int32 {
	out := make([]int32, 0, len(sources))
	var seen map[int32]bool // only for entry sets too long to scan
	if len(sources) > 64 {
		seen = make(map[int32]bool, len(sources))
	}
	for _, s := range sources {
		k, present := c.Row(s)
		if !present || (seen == nil && slices.Contains(out, k)) || seen[k] {
			continue
		}
		if seen != nil {
			seen[k] = true
		}
		out = append(out, k)
	}
	return out
}

// NewCostMatrix returns the matrix from the distinct sources present in
// c, in the order given, to every node of c, with no fact yet — the
// table an engine fills in — and the sources' CSR rows.
func NewCostMatrix(c *graph.CSR, sources []graph.NodeID) (*CostMatrix, []int32) {
	rows := sourceIndices(c, sources)
	m := &CostMatrix{Rows: make([]graph.NodeID, len(rows)), Cols: c.IDs, Cost: infs(len(rows) * len(c.IDs))}
	for i, k := range rows {
		m.Rows[i] = c.IDs[k]
	}
	return m, rows
}

// infs returns n cells of +Inf.
func infs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	return out
}

// Col returns the column of node id, by binary search.
func (m *CostMatrix) Col(id graph.NodeID) (int, bool) {
	return slices.BinarySearch(m.Cols, id)
}

// Len returns the number of facts: the cells that are not +Inf.
func (m *CostMatrix) Len() int {
	n := 0
	for _, c := range m.Cost {
		if !math.IsInf(c, 1) {
			n++
		}
	}
	return n
}

// Bytes is what the matrix holds of its own: 8 B per cell and per row
// plus its header. The columns are its CSR's and are not counted.
func (m *CostMatrix) Bytes() int {
	return 8*len(m.Cost) + 8*len(m.Rows) + matrixHeader
}

// Each calls fn on every fact in leg-table order: by destination, the
// sources of one destination in row order.
func (m *CostMatrix) Each(fn func(src, dst graph.NodeID, cost float64)) {
	n := len(m.Cols)
	for c, dst := range m.Cols {
		for r, src := range m.Rows {
			if cost := m.Cost[r*n+c]; !math.IsInf(cost, 1) {
				fn(src, dst, cost)
			}
		}
	}
}

// Relation returns the facts as a (src, dst, cost) relation in Each's
// order, rows windows of one backing array and each node id boxed once.
func (m *CostMatrix) Relation() *relation.Relation {
	facts := m.Len()
	tuples := make([]relation.Tuple, 0, facts)
	cells := make([]relation.Value, 0, 3*facts)
	srcs := make([]relation.Value, len(m.Rows))
	for r, src := range m.Rows {
		srcs[r] = int64(src)
	}
	n := len(m.Cols)
	for c, dst := range m.Cols {
		var boxed relation.Value
		for r := range m.Rows {
			if cost := m.Cost[r*n+c]; !math.IsInf(cost, 1) {
				if boxed == nil {
					boxed = int64(dst)
				}
				cells = append(cells, srcs[r], boxed, cost)
				tuples = append(tuples, cells[len(cells)-3:len(cells):len(cells)])
			}
		}
	}
	out, err := relation.Adopt(tuples, costSchema...)
	if err != nil {
		panic(err) // every tuple has the schema's arity
	}
	return out
}
