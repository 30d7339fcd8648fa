// Fixture: Fragmentation.Base in the facade, analyzed as
// repro/pkg/tcq (reports) and repro/cmd/tcfrag (out of scope: none).
package tcq

import "repro/internal/fragment"

func size(fr *fragment.Fragmentation) int {
	return fr.Base().NumEdges() // want "(*fragment.Fragmentation).Base in repro/pkg/tcq"
}

func nodes(fr *fragment.Fragmentation) int { return fr.NumNodes() }
