package relation

import "fmt"

// Adopt adopts rows and schema as a relation — the slices and the
// tuples are the relation's from here on, nothing is copied, so tables
// built over one package-level schema share it. One pass checks each
// row's arity; the values are the caller's business, as they are for
// any reader of Tuples.
func Adopt(rows []Tuple, schema ...string) (*Relation, error) {
	checkSchema(schema)
	for i, t := range rows {
		if len(t) != len(schema) {
			return nil, fmt.Errorf("relation: row %d: tuple arity %d does not match schema arity %d", i, len(t), len(schema))
		}
	}
	return &Relation{schema: schema, tuples: rows}, nil
}
