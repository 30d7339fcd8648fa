package dsa

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// This file is the one place that knows how the assembly reads a leg
// table: a tc.CostMatrix in its site's shape (tc.NewCostMatrix over the
// site's CSR) — one row per distinct entry node present on the site, in
// entry order, one column per node of the CSR, +Inf where there is no
// fact — whose bitset facts carry the presence marker 1. Every engine
// writes its table in that shape (ExecuteLegTableCtx). A leg's exits are
// gathered out of its table into an ExitBlock, its exit-only result,
// which is all the assembly fold reads: one pass that copies the exit
// columns' cells row by row into a contiguous block and counts the facts
// they select. A site gathers the same blocks out of its border tables
// (border.go), and facts from anywhere else — a relation handed to
// FinishPlan, a peer's shipped exits — become a block in one step
// (FactBlock).
// FilterLegFacts is the same selection over a (src, dst, cost)
// relation, copied out into a relation of its own: the relational
// reference the fold is tested against, kept exported for the
// benchmark harness.

// legSchema is the schema of every leg relation.
var legSchema = relation.Schema{"src", "dst", "cost"}

// legFact unpacks one (src, dst, cost) leg fact, reporting false for a
// tuple of any other shape.
func legFact(t relation.Tuple) (src, dst int64, cost float64, ok bool) {
	if len(t) != 3 {
		return 0, 0, 0, false
	}
	src, ok1 := t[0].(int64)
	dst, ok2 := t[1].(int64)
	cost, ok3 := t[2].(float64)
	return src, dst, cost, ok1 && ok2 && ok3
}

// checkLegFacts reports the first row of rel that is not a leg fact.
func checkLegFacts(rel *relation.Relation) error {
	for _, t := range rel.Tuples() {
		if _, _, _, ok := legFact(t); !ok {
			return fmt.Errorf("leg table: fact %v is not (src int64, dst int64, cost float64)", t)
		}
	}
	return nil
}

// relBlock is FactBlock over a (src, dst, cost) relation, every row
// checked to be a leg fact first.
func relBlock(rel *relation.Relation, leg Leg) (*ExitBlock, error) {
	if err := checkLegFacts(rel); err != nil {
		return nil, err
	}
	rows := rel.Tuples()
	return FactBlock(leg, len(rows), func(i int) (graph.NodeID, graph.NodeID, float64) {
		src, dst, cost, _ := legFact(rows[i])
		return graph.NodeID(src), graph.NodeID(dst), cost
	})
}

// ExitBlock is a leg's exit-only result: its table's rows by its
// distinct exits in ascending order, the cells contiguous, beside each
// exit's zero-cost flag and the number of facts the block selects. It
// is all the assembly fold reads of a leg, and it depends on nothing
// but the leg's table, entry set and exit set — never on the query's
// source or target — so a leg entered and left through disconnection
// sets has one block however many queries cross its site. A block is
// not written once built; any number of folds may read it.
type ExitBlock struct {
	// rows are the table's rows, the leg's distinct entry nodes in
	// entry order: shared with the table or with the leg's entry set.
	rows []graph.NodeID
	// exits are the leg's distinct exits, ascending: the leg's own
	// slice when it already is.
	exits []graph.NodeID
	// zero[j] reports that exits[j] is also an entry node, so the
	// empty path selects it at cost 0.
	zero []bool
	// cost[r*len(exits)+j] is the table's cell (rows[r], exits[j]),
	// +Inf where there is no fact or the table has no such column.
	cost []float64
	// n is the facts the block selects: its finite cells plus its
	// zero-cost flags.
	n int
}

// blockHeader is the size of an ExitBlock value: four slice headers
// and a count.
const blockHeader = 104

// SelectExits is the exit-set selection — disconnection sets "act as
// intermediate nodes that must be mandatorily traversed" (§2.1), a
// keyhole on the per-fragment subquery — of leg from its table, into a
// block of its own: every row of the table by the leg's distinct exits,
// ascending.
func SelectExits(table *tc.CostMatrix, leg Leg) *ExitBlock {
	exits := distinctExits(leg.Exit)
	var buf [8]int32 // up to 8 exits need no heap for cols
	cols := slices.Grow(buf[:0], len(exits))
	for _, x := range exits {
		c, ok := table.Col(x)
		if !ok {
			c = -1
		}
		cols = append(cols, int32(c))
	}
	b := &ExitBlock{rows: table.Rows, exits: exits, zero: make([]bool, len(exits))}
	b.gather(table, nil, cols, leg.Entry)
	return b
}

// FactBlock builds leg's block straight from n facts read through
// fact, as SelectExits would select them from a table that holds them:
// the leg's distinct entry nodes as rows, in entry order, by its
// distinct exits, each cell the least cost of its facts, and the
// zero-cost flags of the exits that are also entry nodes. A fact to a
// node that is not an exit is not selected; a fact from a node that is
// not an entry node is an error. Facts in leg-table order — by exit,
// the rows of one exit in order, as a table crosses the wire — find
// their row and column where the previous fact's next row and column
// are, so the searches are the exception.
func FactBlock(leg Leg, n int, fact func(i int) (src, dst graph.NodeID, cost float64)) (*ExitBlock, error) {
	rows, index := leg.Entry, make(map[graph.NodeID]int, len(leg.Entry))
	for _, a := range leg.Entry {
		if _, seen := index[a]; !seen {
			index[a] = len(index)
		}
	}
	if len(index) < len(rows) {
		rows = make([]graph.NodeID, len(index))
		for a, r := range index {
			rows[r] = a
		}
	}
	exits, inf := distinctExits(leg.Exit), math.Inf(1)
	b := &ExitBlock{rows: rows, exits: exits, zero: make([]bool, len(exits)), cost: make([]float64, len(rows)*len(exits))}
	for i := range b.cost {
		b.cost[i] = inf
	}
	r, j := -1, 0
	for i := range n {
		src, dst, cost := fact(i)
		if r++; r >= len(rows) || rows[r] != src {
			var ok bool
			if r, ok = index[src]; !ok {
				return nil, fmt.Errorf("leg table: fact (%d, %d, %v) from %d, which is not an entry node of the leg", src, dst, cost, src)
			}
		}
		if j >= len(exits) || exits[j] != dst {
			var ok bool
			if j, ok = slices.BinarySearch(exits, dst); !ok {
				continue
			}
		}
		cell := &b.cost[r*len(exits)+j]
		if *cell == inf && cost != inf {
			b.n++ // the cell's first fact
		}
		*cell = min(*cell, cost)
	}
	b.flagZero(leg.Entry)
	return b, nil
}

// gather is the one pass that fills a block whose exits and zero flags
// are allocated: it copies the cells of m's rows at indices rows (nil:
// every row, in order) in the columns cols (-1: none, read as +Inf),
// at ascending offsets of each row, and counts the finite ones; then
// each exit that is also an entry node is flagged and counted, once
// whatever the entry set repeats.
func (b *ExitBlock) gather(m *tc.CostMatrix, rows, cols []int32, entry []graph.NodeID) {
	n := len(rows)
	if rows == nil {
		n = len(m.Rows)
	}
	b.cost = make([]float64, n*len(cols))
	width, inf := len(m.Cols), math.Inf(1)
	for i := range n {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		src := m.Cost[r*width : (r+1)*width]
		dst := b.cost[i*len(cols) : (i+1)*len(cols)]
		for j, c := range cols[:len(dst)] {
			v := inf
			if c >= 0 {
				v = src[c]
			}
			dst[j] = v
			if v != inf {
				b.n++
			}
		}
	}
	b.flagZero(entry)
}

// bytes is what a memoized block holds of its own: its cells at 8 B,
// its zero-cost flags at 1 B and its header. Its rows and exits are its
// leg's disconnection sets and are not counted.
func (b *ExitBlock) bytes() int { return 8*len(b.cost) + len(b.zero) + blockHeader }

// Matrix views the block's cells as a leg table of its rows by its
// exits, sharing them: what a site ships for a leg. The zero-cost
// flags are not in it; FactBlock flags them again from the entry set.
func (b *ExitBlock) Matrix() *tc.CostMatrix {
	return &tc.CostMatrix{Rows: b.rows, Cols: b.exits, Cost: b.cost}
}

// distinctExits returns exit sorted and without repeats: exit itself
// when it already is, a sorted copy otherwise.
func distinctExits(exit []graph.NodeID) []graph.NodeID {
	for i := 1; i < len(exit); i++ {
		if exit[i-1] >= exit[i] {
			exits := slices.Clone(exit)
			slices.Sort(exits)
			return slices.Compact(exits)
		}
	}
	return exit
}

// FilterLegFacts is the reference selection over a (src, dst, cost)
// relation: the facts SelectExits picks out of a leg table, copied
// into a relation of their own — exits in ascending order, an exit's
// rows in full's order, then its zero-cost fact if it is an entry node.
// Kept rows share tuple storage with full, and a row that is not a leg
// fact is an error. No query path calls it — the assembly fold reads
// exit blocks — but the tests hold the fold to the relational reference
// assembly over its output, and the benchmark harness times it as its
// own layer.
func FilterLegFacts(full *relation.Relation, leg Leg) (*relation.Relation, error) {
	if err := checkLegFacts(full); err != nil {
		return nil, fmt.Errorf("dsa: filter: site %d: %w", leg.SiteID, err)
	}
	dst := func(t relation.Tuple) int64 { return t[1].(int64) }
	byDst := func(a, b relation.Tuple) int { return cmp.Compare(dst(a), dst(b)) }
	rows := full.Tuples()
	if !slices.IsSortedFunc(rows, byDst) {
		rows = slices.Clone(rows)
		slices.SortStableFunc(rows, byDst)
	}
	exits := slices.Clone(leg.Exit)
	slices.Sort(exits)
	exits = slices.Compact(exits)
	spans := make([][2]int, len(exits)) // each exit's rows [lo, hi)
	n := 0
	for i, x := range exits {
		lo, _ := slices.BinarySearchFunc(rows, int64(x), func(t relation.Tuple, x int64) int { return cmp.Compare(dst(t), x) })
		hi := lo
		for hi < len(rows) && dst(rows[hi]) == int64(x) {
			hi++
		}
		spans[i] = [2]int{lo, hi}
		n += hi - lo + 1
	}
	kept := make([]relation.Tuple, 0, n)
	for i, x := range exits {
		kept = append(kept, rows[spans[i][0]:spans[i][1]]...)
		if slices.Contains(leg.Entry, x) {
			kept = append(kept, relation.Tuple{int64(x), int64(x), 0.0})
		}
	}
	return relation.Adopt(kept, legSchema...)
}
