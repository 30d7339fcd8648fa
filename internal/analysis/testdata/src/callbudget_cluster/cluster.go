// Fixture: exits selected and a leg answered goal-directed in the
// cluster, analyzed as
// repro/internal/cluster and a package below it (reports) and
// repro/internal/store (out of scope: none).
package cluster

import (
	"context"

	"repro/internal/dsa"
	"repro/internal/tc"
)

func remoteBlock(table *tc.CostMatrix, leg dsa.Leg) *dsa.ExitBlock {
	return dsa.SelectExits(table, leg) // want "dsa.SelectExits in repro/internal/cluster"
}

func goalBlock(ctx context.Context, st *dsa.Store, leg dsa.Leg) (*dsa.ExitBlock, tc.Stats, error) {
	return st.GoalBlockCtx(ctx, leg, dsa.EngineDense) // want "GoalBlockCtx in repro/internal/cluster"
}
