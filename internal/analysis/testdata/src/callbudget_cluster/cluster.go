// Fixture: exits selected in the cluster, analyzed as
// repro/internal/cluster and a package below it (reports) and
// repro/internal/store (out of scope: none).
package cluster

import (
	"repro/internal/dsa"
	"repro/internal/tc"
)

func remoteBlock(table *tc.CostMatrix, leg dsa.Leg) *dsa.ExitBlock {
	return dsa.SelectExits(table, leg) // want "dsa.SelectExits in repro/internal/cluster"
}
