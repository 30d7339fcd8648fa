package relation

import (
	"bytes"
	"fmt"
)

// The operators below share tuple storage between input and output
// relations instead of copying: tuples are immutable once inserted
// (Insert copies, Tuples() is documented read-only), so a result
// relation referencing its operands' tuples is safe and saves one
// allocation per output tuple. Deep copies remain available via Clone.

// Predicate decides whether a tuple satisfies a selection condition.
type Predicate func(Tuple) bool

// Select returns the tuples of r satisfying pred, preserving order.
// The result shares tuple storage with r.
func (r *Relation) Select(pred Predicate) *Relation {
	out := &Relation{schema: r.Schema()}
	for _, t := range r.tuples {
		if pred(t) {
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// SelectEq selects tuples whose named attribute equals v; this is the
// σ_attr=v of the algebra and the keyhole selection the disconnection
// sets induce on per-fragment subqueries.
func (r *Relation) SelectEq(attr string, v Value) (*Relation, error) {
	i := r.schema.IndexOf(attr)
	if i < 0 {
		return nil, fmt.Errorf("relation: select: unknown attribute %q", attr)
	}
	key := appendValue(nil, v)
	var buf []byte
	return r.Select(func(t Tuple) bool {
		buf = appendValue(buf[:0], t[i])
		return bytes.Equal(buf, key)
	}), nil
}

// valueEqual compares two values, treating int64/float64 as distinct
// types (the engine does no implicit coercion).
func valueEqual(a, b Value) bool {
	return bytes.Equal(appendValue(nil, a), appendValue(nil, b))
}

// Project returns the projection of r onto the named attributes, in the
// given order, keeping bag semantics (duplicates preserved).
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		p := r.schema.IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("relation: project: unknown attribute %q", a)
		}
		pos[i] = p
	}
	out := New(attrs...)
	for _, t := range r.tuples {
		nt := make(Tuple, len(pos))
		for i, p := range pos {
			nt[i] = t[p]
		}
		out.tuples = append(out.tuples, nt)
	}
	return out, nil
}

// Rename returns a relation with the same tuples and renamed
// attributes, sharing tuple storage.
func (r *Relation) Rename(newSchema ...string) (*Relation, error) {
	if len(newSchema) != len(r.schema) {
		return nil, fmt.Errorf("relation: rename: arity mismatch %d vs %d", len(newSchema), len(r.schema))
	}
	out := New(newSchema...)
	out.tuples = append([]Tuple(nil), r.tuples...)
	return out, nil
}

// Distinct removes duplicate tuples, keeping the first occurrence.
func (r *Relation) Distinct() *Relation {
	out := &Relation{schema: r.Schema()}
	seen := make(map[string]struct{}, len(r.tuples))
	var buf []byte
	for _, t := range r.tuples {
		buf = t.AppendKey(buf[:0])
		if _, ok := seen[string(buf)]; ok {
			continue
		}
		seen[string(buf)] = struct{}{}
		out.tuples = append(out.tuples, t)
	}
	return out
}

// Union returns r ∪ s with set semantics (distinct tuples). Schemas
// must match exactly.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if !r.schema.Equal(s.schema) {
		return nil, fmt.Errorf("relation: union: schema mismatch %v vs %v", r.schema, s.schema)
	}
	out := &Relation{schema: r.Schema()}
	seen := make(map[string]struct{}, len(r.tuples)+len(s.tuples))
	var buf []byte
	for _, src := range []*Relation{r, s} {
		for _, t := range src.tuples {
			buf = t.AppendKey(buf[:0])
			if _, ok := seen[string(buf)]; ok {
				continue
			}
			seen[string(buf)] = struct{}{}
			out.tuples = append(out.tuples, t)
		}
	}
	return out, nil
}

// Join computes the equi-join of r and s on the named attribute pairs
// (leftAttrs[i] = rightAttrs[i]) with a hash join: the smaller operand
// is built into a hash table and the larger probed, which is also how
// the final assembly joins of the disconnection set approach exploit
// their "relatively small operands" (§2.1). Probes encode into a reused
// scratch buffer, so only the build side materialises key strings.
//
// The output schema is r's attributes followed by s's attributes that
// are not join attributes; join attributes appear once, under their
// left-hand names.
func (r *Relation) Join(s *Relation, leftAttrs, rightAttrs []string) (*Relation, error) {
	if len(leftAttrs) != len(rightAttrs) || len(leftAttrs) == 0 {
		return nil, fmt.Errorf("relation: join: need equal non-empty attribute lists, got %d and %d", len(leftAttrs), len(rightAttrs))
	}
	lpos := make([]int, len(leftAttrs))
	for i, a := range leftAttrs {
		p := r.schema.IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("relation: join: unknown left attribute %q", a)
		}
		lpos[i] = p
	}
	rpos := make([]int, len(rightAttrs))
	rjoin := make(map[int]struct{}, len(rightAttrs))
	for i, a := range rightAttrs {
		p := s.schema.IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("relation: join: unknown right attribute %q", a)
		}
		rpos[i] = p
		rjoin[p] = struct{}{}
	}

	// Output schema: all of r, then s minus its join attributes.
	outSchema := append(Schema(nil), r.schema...)
	var rkeep []int
	for i, a := range s.schema {
		if _, isJoin := rjoin[i]; isJoin {
			continue
		}
		if outSchema.IndexOf(a) >= 0 {
			return nil, fmt.Errorf("relation: join: attribute %q ambiguous in output; rename first", a)
		}
		outSchema = append(outSchema, a)
		rkeep = append(rkeep, i)
	}

	out := &Relation{schema: outSchema}
	var buf []byte
	// Build on the smaller side, probe with the larger.
	if len(r.tuples) <= len(s.tuples) {
		table := make(map[string][]Tuple, len(r.tuples))
		for _, t := range r.tuples {
			buf = appendKeyAt(buf[:0], t, lpos)
			table[string(buf)] = append(table[string(buf)], t)
		}
		for _, st := range s.tuples {
			buf = appendKeyAt(buf[:0], st, rpos)
			for _, rt := range table[string(buf)] {
				out.tuples = append(out.tuples, combine(rt, st, rkeep))
			}
		}
	} else {
		table := make(map[string][]Tuple, len(s.tuples))
		for _, t := range s.tuples {
			buf = appendKeyAt(buf[:0], t, rpos)
			table[string(buf)] = append(table[string(buf)], t)
		}
		for _, rt := range r.tuples {
			buf = appendKeyAt(buf[:0], rt, lpos)
			for _, st := range table[string(buf)] {
				out.tuples = append(out.tuples, combine(rt, st, rkeep))
			}
		}
	}
	return out, nil
}

// combine concatenates a left tuple with the kept positions of a right
// tuple.
func combine(rt, st Tuple, rkeep []int) Tuple {
	nt := make(Tuple, 0, len(rt)+len(rkeep))
	nt = append(nt, rt...)
	for _, p := range rkeep {
		nt = append(nt, st[p])
	}
	return nt
}
