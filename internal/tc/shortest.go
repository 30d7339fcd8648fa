package tc

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/relation"
)

// costSchema is the schema of shortest-path closures: the minimum cost
// of any path from src to dst.
var costSchema = relation.Schema{"src", "dst", "cost"}

// normalizeEdges validates an edge relation and returns it with the
// canonical (src, dst, cost) schema and minimal cost per edge (parallel
// edges collapse to the cheapest).
func normalizeEdges(r *relation.Relation) (*relation.Relation, error) {
	if r.Arity() != 3 {
		return nil, fmt.Errorf("tc: edge relation must have arity 3 (src, dst, cost), got %d", r.Arity())
	}
	edges, err := r.Rename(costSchema...)
	if err != nil {
		return nil, err
	}
	for _, t := range edges.Tuples() {
		c, ok := t[2].(float64)
		if !ok {
			return nil, fmt.Errorf("tc: edge cost %v (%T) is not float64", t[2], t[2])
		}
		if c < 0 {
			return nil, fmt.Errorf("tc: %w: cost %v not supported", ErrNegativeWeight, c)
		}
	}
	return edges.MinBy("cost", "src", "dst")
}

// ShortestClosure computes, for every ordered pair of connected nodes,
// the cost of the cheapest path, by semi-naive evaluation with min-cost
// aggregation: each round extends the improved tuples of the previous
// round by one edge and keeps only strict improvements. For
// non-negative costs the iteration reaches a fixpoint after at most
// diameter-many rounds.
//
// This is the "cost of the shortest path between A and B" query of the
// paper's introduction, and the per-fragment computation of the
// disconnection set approach for path problems.
func ShortestClosure(r *relation.Relation) (*relation.Relation, Stats, error) {
	var st Stats
	edges, err := normalizeEdges(r)
	if err != nil {
		return nil, st, err
	}
	return shortestFixpoint(context.Background(), edges, edges, &st)
}

// ShortestFromCtx computes the cheapest path costs from the given
// source nodes only, seeding the fixpoint with their out-edges
// (selection pushing, as in ReachableFrom). The fixpoint observes ctx
// between rounds, and a canceled run returns ErrCanceled instead of a
// partial relation.
func ShortestFromCtx(ctx context.Context, r *relation.Relation, sources []graph.NodeID) (*relation.Relation, Stats, error) {
	var st Stats
	edges, err := normalizeEdges(r)
	if err != nil {
		return nil, st, err
	}
	return shortestFixpoint(ctx, seedEdges(edges, sources), edges, &st)
}

// shortestFixpoint runs the min-cost delta iteration from seed over
// edges; both have schema (src, dst, cost).
//
// The known set is kept as a (src, dst) → best-cost index that lives
// across rounds and is updated incrementally — the previous
// implementation rebuilt the whole index (re-encoding every known
// tuple) and re-aggregated the merged relation once per round. The
// final relation lists pairs in first-appearance order with their best
// cost, exactly what the Union+MinBy chain produced.
func shortestFixpoint(ctx context.Context, seed, edges *relation.Relation, st *Stats) (*relation.Relation, Stats, error) {
	seedMin, err := seed.MinBy("cost", "src", "dst")
	if err != nil {
		return nil, *st, err
	}
	// entries holds one best (src, dst, cost) per pair in
	// first-appearance order; index maps encoded (src, dst) keys to
	// positions in entries.
	type entry struct {
		src, dst relation.Value
		cost     float64
	}
	var entries []entry
	index := make(map[string]int, seedMin.Len())
	var buf []byte
	for _, t := range seedMin.Tuples() {
		buf = relation.Tuple{t[0], t[1]}.AppendKey(buf[:0])
		index[string(buf)] = len(entries)
		entries = append(entries, entry{src: t[0], dst: t[1], cost: t[2].(float64)})
	}

	delta := seedMin
	renamed, err := edges.Rename("mid", "dst2", "cost2")
	if err != nil {
		return nil, *st, err
	}
	// cancelStride bounds how many fold iterations run between ctx
	// checks: the expensive per-round loops stay interruptible even
	// when one round derives hundreds of thousands of tuples (the
	// monolithic Join is then the only uninterruptible unit).
	const cancelStride = 8192
	for delta.Len() > 0 {
		if ctx.Err() != nil {
			return nil, *st, canceled(ctx)
		}
		st.Iterations++
		joined, err := delta.Join(renamed, []string{"dst"}, []string{"mid"})
		if err != nil {
			return nil, *st, err
		}
		st.DerivedTuples += joined.Len()
		// Fold the joined (src, dst, cost, dst2, cost2) tuples — Join
		// drops the right-side join attribute mid — into the
		// per-(src, dst2) round minimum, in first-appearance order.
		var round []entry
		roundPos := make(map[string]int) // key → position in round
		for ti, t := range joined.Tuples() {
			if ti%cancelStride == 0 && ctx.Err() != nil {
				return nil, *st, canceled(ctx)
			}
			total := t[2].(float64) + t[4].(float64)
			buf = relation.Tuple{t[0], t[3]}.AppendKey(buf[:0])
			if pos, ok := roundPos[string(buf)]; ok {
				if total < round[pos].cost {
					round[pos].cost = total
				}
				continue
			}
			roundPos[string(buf)] = len(round)
			round = append(round, entry{src: t[0], dst: t[3], cost: total})
		}
		// Commit strict improvements over the known costs; they form the
		// next delta.
		improved := relation.New(costSchema...)
		for ci, c := range round {
			if ci%cancelStride == 0 && ctx.Err() != nil {
				return nil, *st, canceled(ctx)
			}
			buf = relation.Tuple{c.src, c.dst}.AppendKey(buf[:0])
			if pos, ok := index[string(buf)]; ok {
				if c.cost >= entries[pos].cost {
					continue
				}
				entries[pos].cost = c.cost
			} else {
				index[string(buf)] = len(entries)
				entries = append(entries, c)
			}
			improved.MustInsert(relation.Tuple{c.src, c.dst, c.cost})
		}
		if improved.Len() == 0 {
			break
		}
		delta = improved
	}
	known := relation.New(costSchema...)
	for _, e := range entries {
		known.MustInsert(relation.Tuple{e.src, e.dst, e.cost})
	}
	st.ResultTuples = known.Len()
	return known, *st, nil
}
