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
// table: a tc.CostMatrix with the leg's distinct entry nodes present on
// the site as rows, destinations as ascending columns and +Inf where
// there is no fact — the bitset kernel's facts carry the presence
// marker 1. The CSR kernels and the Dijkstra arm write the matrix in
// place (ExecuteLegTableCtx); the semi-naive arm's relation and a
// relation handed to FinishPlan are converted once (legTableOf); and
// selectExits finds a leg's exits in it for the assembly fold to read in
// place. FilterLegFacts is the same selection over a (src, dst, cost)
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

// legTableOf converts a (src, dst, cost) relation to a leg table once:
// every row checked to be a leg fact, a repeated (src, dst) pair kept at
// its least cost.
func legTableOf(rel *relation.Relation) (*tc.CostMatrix, error) {
	if err := checkLegFacts(rel); err != nil {
		return nil, err
	}
	rows := rel.Tuples()
	return tc.FactMatrix(len(rows), func(i int) (graph.NodeID, graph.NodeID, float64) {
		src, dst, cost, _ := legFact(rows[i])
		return graph.NodeID(src), graph.NodeID(dst), cost
	}), nil
}

// exitSpan is one distinct exit of a leg: its column of the leg table
// (-1 when the table has none), the facts in that column, and whether
// the exit is an entry node too — then it also has the zero-cost fact
// of the empty path.
type exitSpan struct {
	exit  graph.NodeID
	col   int
	facts int
	zero  bool
}

// legSelection is a leg's exits in its table: one span per distinct
// exit in ascending order, and n, the facts they select.
type legSelection struct {
	table *tc.CostMatrix
	spans []exitSpan
	n     int
}

// selectExits is the exit-set selection — disconnection sets "act as
// intermediate nodes that must be mandatorily traversed" (§2.1), a
// keyhole on the per-fragment subquery — over a leg table, without
// copying a cell: the exits sorted and deduplicated, one binary search
// each for its column, so the columns it discards are never read.
func selectExits(table *tc.CostMatrix, leg Leg) legSelection {
	sel := legSelection{table: table, spans: make([]exitSpan, len(leg.Exit))}
	for i, x := range leg.Exit {
		sel.spans[i].exit = x
	}
	byExit := func(s exitSpan, x graph.NodeID) int { return cmp.Compare(s.exit, x) }
	slices.SortFunc(sel.spans, func(a, b exitSpan) int { return byExit(a, b.exit) })
	sel.spans = slices.CompactFunc(sel.spans, func(a, b exitSpan) bool { return a.exit == b.exit })
	width := len(table.Cols)
	for i := range sel.spans {
		s := &sel.spans[i]
		c, ok := table.Col(s.exit)
		if !ok {
			s.col = -1
			continue
		}
		s.col = c
		for k := c; k < len(table.Cost); k += width {
			if !math.IsInf(table.Cost[k], 1) {
				s.facts++
			}
		}
		sel.n += s.facts
	}
	for _, a := range leg.Entry {
		if i, both := slices.BinarySearchFunc(sel.spans, a, byExit); both && !sel.spans[i].zero {
			sel.spans[i].zero = true
			sel.n++
		}
	}
	return sel
}

// FilterLegFacts is the reference selection over a (src, dst, cost)
// relation: the facts selectExits picks out of a leg table, copied into
// a relation of their own — exits in ascending order, an exit's rows in
// full's order, then its zero-cost fact if it is an entry node. Kept
// rows share tuple storage with full, and a row that is not a leg fact
// is an error. No query path calls it — the assembly fold reads the
// table in place — but the tests hold the fold to the relational
// reference assembly over its output, and the benchmark harness times
// it as its own layer.
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
