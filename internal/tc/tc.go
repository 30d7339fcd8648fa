// Package tc implements transitive-closure algorithms on edge relations
// and graphs: naive, semi-naive (delta) and smart (squaring) fixpoints
// for reachability, a cost-aggregating fixpoint for shortest paths, a
// Warshall matrix algorithm, and source-restricted variants that push
// selections into the iteration — the "keyhole" behaviour disconnection
// sets induce (ICDE'93 §2.2).
//
// Every algorithm reports Stats so experiments can verify the paper's
// §2.1 claim that "the number of iterations required before reaching a
// fixpoint is given by the maximum diameter of the graph" and that
// fragmenting the graph reduces the per-site iteration count.
package tc

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/relation"
)

// Stats describes the work a transitive-closure computation performed.
// The paper uses the number of fixpoint iterations and the size of the
// intermediate results as the workload measure of a fragment (§2.2).
type Stats struct {
	// Iterations is the number of fixpoint rounds until no new tuples
	// were derived (the final empty round is not counted).
	Iterations int
	// DerivedTuples counts every tuple produced by joins across all
	// rounds, before duplicate elimination — the paper's "size of the
	// intermediate results".
	DerivedTuples int
	// ResultTuples is the cardinality of the final closure.
	ResultTuples int
}

// Add accumulates other into s; the parallel executor sums per-site
// stats with it.
func (s *Stats) Add(other Stats) {
	s.Iterations += other.Iterations
	s.DerivedTuples += other.DerivedTuples
	s.ResultTuples += other.ResultTuples
}

// Max keeps, per field, the maximum of s and other — the critical-path
// view of parallel work (the slowest site determines the elapsed time).
func (s *Stats) Max(other Stats) {
	if other.Iterations > s.Iterations {
		s.Iterations = other.Iterations
	}
	if other.DerivedTuples > s.DerivedTuples {
		s.DerivedTuples = other.DerivedTuples
	}
	if other.ResultTuples > s.ResultTuples {
		s.ResultTuples = other.ResultTuples
	}
}

// pairSchema is the schema of reachability closures.
var pairSchema = relation.Schema{"src", "dst"}

// checkEdgeRelation verifies that r looks like an edge relation
// (arity 3: src, dst, cost) and returns its projection to (src, dst).
func checkEdgeRelation(r *relation.Relation) (*relation.Relation, error) {
	if r.Arity() != 3 {
		return nil, fmt.Errorf("tc: edge relation must have arity 3 (src, dst, cost), got %d", r.Arity())
	}
	s := r.Schema()
	pairs, err := r.Project(s[0], s[1])
	if err != nil {
		return nil, err
	}
	pairs, err = pairs.Rename("src", "dst")
	if err != nil {
		return nil, err
	}
	return pairs.Distinct(), nil
}

// seedEdges selects the edges leaving the given sources — the pushed
// selection that seeds every source-restricted fixpoint. edges has src
// first; a node of any type but int64 matches no source.
func seedEdges(edges *relation.Relation, sources []graph.NodeID) *relation.Relation {
	from := make(map[int64]struct{}, len(sources))
	for _, s := range sources {
		from[int64(s)] = struct{}{}
	}
	return edges.Select(func(t relation.Tuple) bool {
		src, ok := t[0].(int64)
		_, seeded := from[src]
		return ok && seeded
	})
}

// NaiveClosure computes the reachability closure of the edge relation r
// with the naive fixpoint: T_{k+1} = E ∪ π(T_k ⋈ E), re-deriving every
// known tuple each round. It exists as the textbook baseline the
// smarter algorithms are measured against.
func NaiveClosure(r *relation.Relation) (*relation.Relation, Stats, error) {
	var st Stats
	edges, err := checkEdgeRelation(r)
	if err != nil {
		return nil, st, err
	}
	known := edges
	renamed, err := edges.Rename("mid", "dst2")
	if err != nil {
		return nil, st, err
	}
	for {
		st.Iterations++
		joined, err := known.Join(renamed, []string{"dst"}, []string{"mid"})
		if err != nil {
			return nil, st, err
		}
		st.DerivedTuples += joined.Len()
		stepped, err := joined.Project("src", "dst2")
		if err != nil {
			return nil, st, err
		}
		stepped, err = stepped.Rename("src", "dst")
		if err != nil {
			return nil, st, err
		}
		next, err := known.Union(stepped)
		if err != nil {
			return nil, st, err
		}
		if next.Len() == known.Len() {
			st.ResultTuples = known.Len()
			return known, st, nil
		}
		known = next
	}
}

// SemiNaiveClosure computes the reachability closure with semi-naive
// (delta) evaluation: only tuples new in round k join with the edge
// relation in round k+1. This is the single-processor algorithm the
// disconnection set approach runs per fragment.
func SemiNaiveClosure(r *relation.Relation) (*relation.Relation, Stats, error) {
	var st Stats
	edges, err := checkEdgeRelation(r)
	if err != nil {
		return nil, st, err
	}
	return semiNaivePairs(edges, edges, &st)
}

// semiNaivePairs runs the delta iteration from the given seed pairs over
// the given edge pairs. Both relations must have schema (src, dst).
//
// The known set is maintained as one relation.Dedup that lives across
// rounds: each round's step output is filtered against it in a single
// pass (Dedup.Filter is distinct and set difference combined) and the
// new tuples are appended in place, instead of re-encoding the whole
// known relation per round.
func semiNaivePairs(seed, edges *relation.Relation, st *Stats) (*relation.Relation, Stats, error) {
	dedup := relation.NewDedup()
	known := dedup.Filter(seed)
	delta := known
	renamed, err := edges.Rename("mid", "dst2")
	if err != nil {
		return nil, *st, err
	}
	for delta.Len() > 0 {
		st.Iterations++
		joined, err := delta.Join(renamed, []string{"dst"}, []string{"mid"})
		if err != nil {
			return nil, *st, err
		}
		st.DerivedTuples += joined.Len()
		stepped, err := joined.Project("src", "dst2")
		if err != nil {
			return nil, *st, err
		}
		stepped, err = stepped.Rename("src", "dst")
		if err != nil {
			return nil, *st, err
		}
		delta = dedup.Filter(stepped)
		if err := known.Extend(delta); err != nil {
			return nil, *st, err
		}
	}
	st.ResultTuples = known.Len()
	return known, *st, nil
}

// SmartClosure computes the reachability closure by repeated squaring
// (the "smart" algorithm of Ioannidis, paper reference [16]): paths of
// length up to 2^k after k rounds, so the number of iterations is
// logarithmic in the diameter instead of linear.
func SmartClosure(r *relation.Relation) (*relation.Relation, Stats, error) {
	var st Stats
	known, err := checkEdgeRelation(r)
	if err != nil {
		return nil, st, err
	}
	for {
		st.Iterations++
		renamed, err := known.Rename("mid", "dst2")
		if err != nil {
			return nil, st, err
		}
		joined, err := known.Join(renamed, []string{"dst"}, []string{"mid"})
		if err != nil {
			return nil, st, err
		}
		st.DerivedTuples += joined.Len()
		stepped, err := joined.Project("src", "dst2")
		if err != nil {
			return nil, st, err
		}
		stepped, err = stepped.Rename("src", "dst")
		if err != nil {
			return nil, st, err
		}
		next, err := known.Union(stepped)
		if err != nil {
			return nil, st, err
		}
		if next.Len() == known.Len() {
			st.ResultTuples = known.Len()
			return known, st, nil
		}
		known = next
	}
}

// WarshallClosure computes the reachability closure with Warshall's
// in-place matrix algorithm over a dense bit matrix. It serves as an
// independent oracle for the relational fixpoints in tests, and as the
// centralized baseline with no per-fragment structure to exploit.
func WarshallClosure(r *relation.Relation) (*relation.Relation, Stats, error) {
	var st Stats
	edges, err := checkEdgeRelation(r)
	if err != nil {
		return nil, st, err
	}
	// Collect the node universe.
	index := make(map[int64]int)
	var ids []int64
	intern := func(v relation.Value) (int, error) {
		id, ok := v.(int64)
		if !ok {
			return 0, fmt.Errorf("tc: warshall: node %v (%T) is not int64", v, v)
		}
		if i, ok := index[id]; ok {
			return i, nil
		}
		index[id] = len(ids)
		ids = append(ids, id)
		return len(ids) - 1, nil
	}
	type pair struct{ a, b int }
	var pairs []pair
	for _, t := range edges.Tuples() {
		a, err := intern(t[0])
		if err != nil {
			return nil, st, err
		}
		b, err := intern(t[1])
		if err != nil {
			return nil, st, err
		}
		pairs = append(pairs, pair{a, b})
	}
	n := len(ids)
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for _, p := range pairs {
		reach[p.a][p.b] = true
	}
	for k := 0; k < n; k++ {
		st.Iterations++
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			row, via := reach[i], reach[k]
			for j := 0; j < n; j++ {
				if via[j] && !row[j] {
					row[j] = true
					st.DerivedTuples++
				}
			}
		}
	}
	out := relation.New(pairSchema...)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if reach[i][j] {
				out.MustInsert(relation.Tuple{ids[i], ids[j]})
			}
		}
	}
	st.ResultTuples = out.Len()
	return out, st, nil
}

// ReachableFrom computes the set of (src, dst) pairs with src in
// sources, by semi-naive evaluation seeded with the out-edges of the
// sources. This is the selection-pushed recursion each site runs in the
// disconnection set approach: the sources are either the query constant
// or the nodes of the incoming disconnection set, so the whole "magic
// cone" never leaves the fragment.
func ReachableFrom(r *relation.Relation, sources []graph.NodeID) (*relation.Relation, Stats, error) {
	var st Stats
	edges, err := checkEdgeRelation(r)
	if err != nil {
		return nil, st, err
	}
	return semiNaivePairs(seedEdges(edges, sources), edges, &st)
}
