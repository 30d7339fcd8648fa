// Fixture: the cluster layer importing the serving layer above it —
// the architecture inversion the rule forbids. Analyzed as
// repro/internal/cluster.
package cluster

import (
	_ "repro/internal/server" // want "import of repro/internal/server in"
)
