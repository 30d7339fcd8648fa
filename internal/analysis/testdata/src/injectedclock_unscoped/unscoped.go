// Fixture: bare time.Now outside the scoped package. Analyzed as
// repro/internal/server, where the clock-injection contract does not
// apply; the stamp sits in the one leg path, so the server's budgets
// are met too, and no diagnostics are expected.
package server

import (
	"context"
	"time"

	"repro/internal/dsa"
)

func executeLegLocal(ctx context.Context, st *dsa.Store, leg dsa.Leg) (*dsa.ExitBlock, time.Duration, error) {
	start := time.Now()
	if block, _, err := st.GoalBlockCtx(ctx, leg, dsa.EngineDense); err != nil || block != nil {
		return block, time.Since(start), err
	}
	table, _, err := st.ExecuteLegTableCtx(ctx, leg, dsa.EngineDense)
	if err != nil {
		return nil, 0, err
	}
	return dsa.SelectExits(table, leg), time.Since(start), nil
}
