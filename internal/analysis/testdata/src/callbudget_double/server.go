// Fixture: a second leg path beside executeLegLocal, analyzed as
// repro/internal/server. The method value is what the text
// `.ExecuteLegTableCtx(` misses.
package server

import (
	"context"

	"repro/internal/dsa"
)

func executeLegLocal(ctx context.Context, st *dsa.Store, leg dsa.Leg) (*dsa.ExitBlock, error) {
	if block, _, err := st.GoalBlockCtx(ctx, leg, dsa.EngineDense); err != nil || block != nil { // want "(*dsa.Store).GoalBlockCtx in repro/internal/server: 2, want 1"
		return block, err
	}
	table, _, err := st.ExecuteLegTableCtx(ctx, leg, dsa.EngineDense) // want "(*dsa.Store).ExecuteLegTableCtx in repro/internal/server: 3, want 1"
	if err != nil {
		return nil, err
	}
	return dsa.SelectExits(table, leg), nil // want "dsa.SelectExits in repro/internal/server: 2, want 1"
}

func fallback(ctx context.Context, st *dsa.Store, leg dsa.Leg) (*dsa.ExitBlock, error) {
	if block, _, err := st.GoalBlockCtx(ctx, leg, dsa.EngineDense); err != nil || block != nil { // want "GoalBlockCtx in repro/internal/server: 2"
		return block, err
	}
	table, _, err := st.ExecuteLegTableCtx(ctx, leg, dsa.EngineDijkstra) // want "ExecuteLegTableCtx in repro/internal/server: 3"
	if err != nil {
		return nil, err
	}
	return dsa.SelectExits(table, leg), nil // want "SelectExits in repro/internal/server: 2"
}

func deferred(st *dsa.Store) any {
	f := st.ExecuteLegTableCtx // want "ExecuteLegTableCtx in repro/internal/server: 3"
	return f
}
