// Fixture: the one leg path, analyzed as repro/internal/server: one
// reference each, no finding.
package server

import (
	"context"

	"repro/internal/dsa"
)

func executeLegLocal(ctx context.Context, st *dsa.Store, leg dsa.Leg) (*dsa.ExitBlock, error) {
	if block, _, err := st.GoalBlockCtx(ctx, leg, dsa.EngineDense); err != nil || block != nil {
		return block, err
	}
	table, _, err := st.ExecuteLegTableCtx(ctx, leg, dsa.EngineDense)
	if err != nil {
		return nil, err
	}
	return dsa.SelectExits(table, leg), nil
}
