package dsa

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/relation"
)

// This file is the one place that knows what a leg fact looks like: a
// (src int64, dst int64, cost float64) row under the schema (src, dst,
// cost). The engine arms of ExecuteLegFullCtx that build rows themselves
// (per-entry Dijkstra, bitset) build them here, and FilterLegFacts and
// the assembly fold read rows through legFact — so swapping the row
// container for a columnar one changes this file and the kernels,
// nothing else.

// newLegFacts returns an empty leg-fact relation.
func newLegFacts() *relation.Relation { return relation.New("src", "dst", "cost") }

// newLegFact builds one leg fact.
func newLegFact(src, dst graph.NodeID, cost float64) relation.Tuple {
	return relation.Tuple{int64(src), int64(dst), cost}
}

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

// presenceFacts turns the bitset kernel's (src, dst) reachability pairs
// into leg facts whose cost column is the presence marker 1 — not a
// path cost: assembly sums stay finite and Reachable is exact, Cost is
// meaningless and cost queries refuse the engine.
func presenceFacts(pairs *relation.Relation) *relation.Relation {
	full := newLegFacts()
	for _, t := range pairs.Tuples() {
		full.MustInsert(relation.Tuple{t[0], t[1], 1.0})
	}
	return full
}

// FilterLegFacts specialises ExecuteLegFullCtx output to one leg: the
// exit-set selection — disconnection sets "act as intermediate nodes
// that must be mandatorily traversed" (§2.1), a keyhole on the
// per-fragment subquery — plus the zero-cost facts for entry nodes that
// are themselves exit nodes. ExecuteLegFullCtx followed by
// FilterLegFacts produces exactly the relation ExecuteLegCtx computes
// directly, so cached full relations and freshly executed legs assemble
// to identical answers.
//
// It is one typed pass: each row's dst is probed in an int64 exit set,
// kept rows share tuple storage with full (full's order, then the
// zero-cost facts in Entry order), and a row that is not a leg fact is
// an error, as it is for the assembly fold.
func FilterLegFacts(full *relation.Relation, leg Leg) (*relation.Relation, error) {
	exits := make(map[int64]struct{}, len(leg.Exit))
	for _, x := range leg.Exit {
		exits[int64(x)] = struct{}{}
	}
	var malformed relation.Tuple
	out := full.Select(func(t relation.Tuple) bool {
		_, dst, _, ok := legFact(t)
		if !ok {
			malformed = t
		}
		_, keep := exits[dst]
		return ok && keep
	})
	if malformed != nil {
		return nil, fmt.Errorf("dsa: filter: site %d fact %v is not (src int64, dst int64, cost float64)", leg.SiteID, malformed)
	}
	for _, a := range leg.Entry {
		if _, both := exits[int64(a)]; both {
			out.MustInsert(newLegFact(a, a, 0))
		}
	}
	return out, nil
}
