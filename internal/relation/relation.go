// Package relation implements a small in-memory relational algebra.
//
// The ICDE'93 paper frames transitive closure in the relational model:
// the base relation R stores the edges of a connection network, the
// recursive subqueries per fragment are relational fixpoints, and the
// final assembly phase of the disconnection set approach "is effectively
// a sequence of binary joins between a number of very small relations"
// (§2.1). This package supplies that substrate: relations with named
// attributes, selection, projection, hash join, union, distinct and
// group-by aggregation, all deterministic for a fixed input order.
//
// The algebra runs only under the reference engines of package tc; the
// query path (packages dsa, server, cluster) carries leg tables as
// tc.CostMatrix, and meets a Relation only at the semi-naive engine and
// at the seams kept for the benchmark harness.
//
// Values are restricted to int64, float64, string and bool; attribute
// names are case-sensitive strings. Relations are bags unless Distinct
// is applied; the transitive-closure operators in package tc maintain
// set semantics themselves (as semi-naive evaluation requires).
package relation

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is a single attribute value. Supported dynamic types are int64,
// float64, string and bool; Validate reports anything else.
type Value interface{}

// Tuple is an ordered list of attribute values matching a relation's
// schema.
type Tuple []Value

// Schema is an ordered list of attribute names.
type Schema []string

// IndexOf returns the position of attribute name, or -1.
func (s Schema) IndexOf(name string) int {
	for i, a := range s {
		if a == name {
			return i
		}
	}
	return -1
}

// Equal reports whether two schemas have identical names in identical
// order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Relation is a named bag of tuples over a schema.
type Relation struct {
	schema Schema
	tuples []Tuple
}

// New returns an empty relation with the given schema. It panics on an
// empty or duplicate attribute list — schema construction is a
// programming error, not a runtime condition.
func New(schema ...string) *Relation {
	checkSchema(schema)
	return &Relation{schema: append(Schema(nil), schema...)}
}

// checkSchema panics on an empty or duplicate attribute list.
func checkSchema(schema Schema) {
	if len(schema) == 0 {
		panic("relation: empty schema")
	}
	for i, a := range schema {
		if schema[:i].IndexOf(a) >= 0 {
			panic(fmt.Sprintf("relation: duplicate attribute %q", a))
		}
	}
}

// Schema returns a copy of the relation's schema.
func (r *Relation) Schema() Schema { return append(Schema(nil), r.schema...) }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.schema) }

// Len returns the number of tuples (bag cardinality).
func (r *Relation) Len() int { return len(r.tuples) }

// Insert appends a tuple. It returns an error if the arity mismatches
// the schema or a value has an unsupported type.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != len(r.schema) {
		return fmt.Errorf("relation: tuple arity %d does not match schema arity %d", len(t), len(r.schema))
	}
	for i, v := range t {
		if !validValue(v) {
			return fmt.Errorf("relation: attribute %q has unsupported type %T", r.schema[i], v)
		}
	}
	r.tuples = append(r.tuples, append(Tuple(nil), t...))
	return nil
}

// MustInsert inserts and panics on error; for tests and literals.
func (r *Relation) MustInsert(t Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// Tuples returns the tuples in insertion order. The slice and its tuples
// are owned by the relation; callers must not modify them.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	c := &Relation{schema: r.Schema(), tuples: make([]Tuple, len(r.tuples))}
	for i, t := range r.tuples {
		c.tuples[i] = append(Tuple(nil), t...)
	}
	return c
}

// validValue reports whether v has one of the supported dynamic types.
func validValue(v Value) bool {
	switch v.(type) {
	case int64, float64, string, bool:
		return true
	}
	return false
}

// Key renders the whole tuple into a string usable as a map key. Hot
// paths avoid this and use AppendKey with a reused scratch buffer (see
// keys.go); Key remains the convenient form for tests and one-offs.
func (t Tuple) Key() string {
	return string(t.AppendKey(nil))
}

// Contains reports whether the relation holds a tuple equal to t.
func (r *Relation) Contains(t Tuple) bool {
	key := t.AppendKey(nil)
	var buf []byte
	for _, u := range r.tuples {
		buf = u.AppendKey(buf[:0])
		if bytes.Equal(buf, key) {
			return true
		}
	}
	return false
}

// Sort orders the tuples lexicographically by their encoded keys, in
// place, and returns the relation. Deterministic output for printing
// and comparison in tests. Keys are encoded once per tuple, not per
// comparison.
func (r *Relation) Sort() *Relation {
	keys := make([]string, len(r.tuples))
	var buf []byte
	for i, t := range r.tuples {
		buf = t.AppendKey(buf[:0])
		keys[i] = string(buf)
	}
	sort.Sort(&byKey{tuples: r.tuples, keys: keys})
	return r
}

// byKey sorts tuples and their precomputed keys together.
type byKey struct {
	tuples []Tuple
	keys   []string
}

func (s *byKey) Len() int           { return len(s.tuples) }
func (s *byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *byKey) Swap(i, j int) {
	s.tuples[i], s.tuples[j] = s.tuples[j], s.tuples[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// String renders the relation as a compact table.
func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.schema, ", "))
	sb.WriteString(" (")
	sb.WriteString(strconv.Itoa(len(r.tuples)))
	sb.WriteString(" tuples)\n")
	for _, t := range r.tuples {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = fmt.Sprintf("%v", v)
		}
		sb.WriteString("  (")
		sb.WriteString(strings.Join(parts, ", "))
		sb.WriteString(")\n")
	}
	return sb.String()
}
