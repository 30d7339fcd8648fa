package relation

// This file is the interned-key layer of the algebra: every operator
// that hashes tuples (distinct, union, join builds and probes,
// group-by) encodes them through the append-style functions
// below into a caller-owned scratch []byte, and probes maps with
// string(buf) — a conversion the Go compiler elides for map lookups.
// A key string is only materialised when it must be *stored* in a map
// (once per distinct key), which removes the per-tuple-per-iteration
// allocation storm of the previous strings.Builder encoder from the
// semi-naive hot loops.

import (
	"fmt"
	"strconv"
)

// appendValue appends the type-prefixed encoding of v to b, so that
// int64(1) and "1" never collide. It is the []byte twin of the old
// strings.Builder encoder and produces byte-identical keys.
func appendValue(b []byte, v Value) []byte {
	switch x := v.(type) {
	case int64:
		b = append(b, 'i')
		b = strconv.AppendInt(b, x, 10)
	case float64:
		b = append(b, 'f')
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(x)), 10)
		b = append(b, ':')
		b = append(b, x...)
	case bool:
		b = append(b, 'b')
		if x {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	default:
		panic(fmt.Sprintf("relation: unsupported value type %T", v))
	}
	return append(b, '|')
}

// AppendKey appends the tuple's encoded key to b and returns the
// extended slice. Callers reuse one scratch buffer across tuples
// (b = t.AppendKey(b[:0])) to keep hash probes allocation-free.
func (t Tuple) AppendKey(b []byte) []byte {
	for _, v := range t {
		b = appendValue(b, v)
	}
	return b
}

// appendKeyAt appends the encoding of the projection of t onto pos.
func appendKeyAt(b []byte, t Tuple, pos []int) []byte {
	for _, p := range pos {
		b = appendValue(b, t[p])
	}
	return b
}

// Dedup is a reusable tuple-identity set for delta iterations: the
// semi-naive fixpoints keep one Dedup of every known tuple alive across
// rounds instead of re-encoding the whole known relation per round.
type Dedup struct {
	seen map[string]struct{}
	buf  []byte
}

// NewDedup returns an empty tuple-identity set.
func NewDedup() *Dedup {
	return &Dedup{seen: make(map[string]struct{})}
}

// Add records t and reports whether it was new.
func (d *Dedup) Add(t Tuple) bool {
	d.buf = t.AppendKey(d.buf[:0])
	if _, ok := d.seen[string(d.buf)]; ok {
		return false
	}
	d.seen[string(d.buf)] = struct{}{}
	return true
}

// Len returns the number of distinct tuples recorded.
func (d *Dedup) Len() int { return len(d.seen) }

// Filter returns the tuples of r not yet recorded, in first-occurrence
// order, recording them as a side effect — distinct and set difference
// against the accumulated set in one pass. The result shares tuple
// storage with r (tuples are immutable once inserted).
func (d *Dedup) Filter(r *Relation) *Relation {
	out := &Relation{schema: r.Schema()}
	for _, t := range r.tuples {
		if d.Add(t) {
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// Extend appends s's tuples to r in place (bag semantics, no
// deduplication), sharing tuple storage. Schemas must match. It is the
// in-place union the delta loops use after Dedup.Filter has already
// established disjointness.
func (r *Relation) Extend(s *Relation) error {
	if !r.schema.Equal(s.schema) {
		return fmt.Errorf("relation: extend: schema mismatch %v vs %v", r.schema, s.schema)
	}
	r.tuples = append(r.tuples, s.tuples...)
	r.sorted = 0
	return nil
}
