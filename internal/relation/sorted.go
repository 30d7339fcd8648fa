package relation

import (
	"fmt"
	"sort"
)

// NewSortedBy adopts rows and schema — the slices and the tuples are
// the relation's from here on, nothing is copied, so tables built over
// one package-level schema share it — as a relation whose column col
// holds int64 values in non-decreasing order, and marks it so: Range
// then finds a value's rows by binary search. One pass checks exactly
// what the lookup relies on (arity, an int64 in col, the order); the
// other columns are the caller's business, as they are for any reader
// of Tuples. Insert, Extend and Sort clear the mark; Clone keeps it.
func NewSortedBy(rows []Tuple, col int, schema ...string) (*Relation, error) {
	checkSchema(schema)
	if col < 0 || col >= len(schema) {
		return nil, fmt.Errorf("relation: sort column %d outside schema of arity %d", col, len(schema))
	}
	var prev int64
	for i, t := range rows {
		if len(t) != len(schema) {
			return nil, fmt.Errorf("relation: row %d: tuple arity %d does not match schema arity %d", i, len(t), len(schema))
		}
		v, ok := t[col].(int64)
		if !ok {
			return nil, fmt.Errorf("relation: row %d: sort attribute %q is %T, not int64", i, schema[col], t[col])
		}
		if i > 0 && v < prev {
			return nil, fmt.Errorf("relation: row %d: sort attribute %q is %d after %d", i, schema[col], v, prev)
		}
		prev = v
	}
	return &Relation{schema: schema, tuples: rows, sorted: col + 1}, nil
}

// SortedBy returns the column the relation is marked as sorted on, or
// -1 for a relation in insertion order.
func (r *Relation) SortedBy() int { return r.sorted - 1 }

// Range returns the half-open span of Tuples() whose sort column equals
// v — empty when no row does — in a binary search for its start and a
// galloping one for its end, which stays near the start: a span is
// usually a small part of the table. It panics on a relation that is
// not marked sorted: a caller that cannot know checks SortedBy first.
func (r *Relation) Range(v int64) (lo, hi int) {
	col := r.sorted - 1
	if col < 0 {
		panic("relation: Range on a relation that is not marked sorted")
	}
	lo = sort.Search(len(r.tuples), func(i int) bool { return r.tuples[i][col].(int64) >= v })
	rest := r.tuples[lo:]
	past := func(i int) bool { return rest[i][col].(int64) > v }
	end := 1 // rest[:end/2] are all v; the span ends within rest[end/2:end]
	for end < len(rest) && !past(end) {
		end *= 2
	}
	end = min(end, len(rest))
	hi = lo + end/2 + sort.Search(end-end/2, func(i int) bool { return past(end/2 + i) })
	return lo, hi
}
