package dsa

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/relation"
)

// This file is the one place that knows what a leg table looks like:
// (src int64, dst int64, cost float64) rows under the schema (src, dst,
// cost), sorted by dst — stable, so the sources of one destination stay
// in the producer's order — and marked so by relation.NewSortedBy.
// Every producer hands its rows over through NewLegTable (the CSR
// kernels, which package tc owns, emit the layout themselves — the
// bitset one with the presence marker 1 in the cost column), and
// selectExits finds a leg's exits in one for the assembly fold to read
// in place. FilterLegFacts, the same selection copied out into a
// relation of its own, is the reference the fold is tested against,
// kept exported for the benchmark harness — so swapping the row
// container for a columnar one changes this file, the fold and the
// kernels, nothing else.

// legSchema is the schema of every leg table.
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

// NewLegTable adopts rows — the slice is the table's from here on, and
// may be reordered — as a leg table. Every row is checked to be a leg
// fact; rows already in dst order (a kernel that emits them so, a table
// that crossed the wire in its owner's order) cost that one pass, any
// other order is stable-sorted first.
func NewLegTable(rows []relation.Tuple) (*relation.Relation, error) {
	inOrder := true
	var prev int64
	for i, t := range rows {
		_, dst, _, ok := legFact(t)
		if !ok {
			return nil, fmt.Errorf("dsa: leg table: fact %v is not (src int64, dst int64, cost float64)", t)
		}
		inOrder = inOrder && (i == 0 || prev <= dst)
		prev = dst
	}
	if !inOrder {
		slices.SortStableFunc(rows, func(a, b relation.Tuple) int { return cmp.Compare(a[1].(int64), b[1].(int64)) })
	}
	return relation.NewSortedBy(rows, 1, legSchema...)
}

// exitSpan is one distinct exit of a leg: its rows [lo, hi) of the leg
// table, then zero zero-cost facts — one per Entry node that is the
// exit itself, whose path to the exit is empty.
type exitSpan struct {
	exit         int64
	lo, hi, zero int
}

// legSelection is a leg's exits in its table: the table's rows, one
// span per distinct exit in ascending order, and n, the facts they
// select.
type legSelection struct {
	rows  []relation.Tuple
	spans []exitSpan
	n     int
}

// selectExits is the exit-set selection — disconnection sets "act as
// intermediate nodes that must be mandatorily traversed" (§2.1), a
// keyhole on the per-fragment subquery — over a leg table, without
// copying a row: the exits sorted and deduplicated, one Range each, so
// the rows it discards are never read. A relation that is not marked as
// a leg table (one built by hand with Insert) is first made one — every
// row checked, headers copied, stable-sorted — so a row that is not a
// leg fact is an error.
func selectExits(full *relation.Relation, leg Leg) (legSelection, error) {
	if full.Arity() != 3 || full.SortedBy() != 1 {
		var err error
		if full, err = NewLegTable(slices.Clone(full.Tuples())); err != nil {
			return legSelection{}, fmt.Errorf("site %d: %w", leg.SiteID, err)
		}
	}
	sel := legSelection{rows: full.Tuples(), spans: make([]exitSpan, len(leg.Exit))}
	for i, x := range leg.Exit {
		sel.spans[i].exit = int64(x)
	}
	byExit := func(s exitSpan, x int64) int { return cmp.Compare(s.exit, x) }
	slices.SortFunc(sel.spans, func(a, b exitSpan) int { return byExit(a, b.exit) })
	sel.spans = slices.CompactFunc(sel.spans, func(a, b exitSpan) bool { return a.exit == b.exit })
	for i := range sel.spans {
		s := &sel.spans[i]
		s.lo, s.hi = full.Range(s.exit)
		sel.n += s.hi - s.lo
	}
	for _, a := range leg.Entry {
		if i, both := slices.BinarySearchFunc(sel.spans, int64(a), byExit); both {
			sel.spans[i].zero++
			sel.n++
		}
	}
	return sel, nil
}

// FilterLegFacts is the reference selection: the facts selectExits
// picks out of a leg table, copied into a leg table of their own —
// exits in ascending order, an exit's rows in full's order, then its
// zero-cost fact once per matching Entry node. Kept rows share tuple
// storage with full. No query path calls it — the assembly fold reads
// the spans in place — but the tests hold the fold to the relational
// reference assembly over its output, and the benchmark harness times
// it as its own layer.
func FilterLegFacts(full *relation.Relation, leg Leg) (*relation.Relation, error) {
	sel, err := selectExits(full, leg)
	if err != nil {
		return nil, fmt.Errorf("dsa: filter: %w", err)
	}
	kept := make([]relation.Tuple, 0, sel.n)
	for _, s := range sel.spans {
		kept = append(kept, sel.rows[s.lo:s.hi]...)
		for ; s.zero > 0; s.zero-- {
			kept = append(kept, relation.Tuple{s.exit, s.exit, 0.0})
		}
	}
	return relation.NewSortedBy(kept, 1, legSchema...)
}
