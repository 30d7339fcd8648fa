// Fixture: MustInsert in one of the CSR kernels' files, analyzed as
// repro/internal/tc.
package tc

import "repro/internal/relation"

func facts(out *relation.Relation, pairs [][2]int64) {
	for _, p := range pairs {
		out.MustInsert(relation.Tuple{p[0], p[1]}) // want "(*relation.Relation).MustInsert in repro/internal/tc"
	}
}
