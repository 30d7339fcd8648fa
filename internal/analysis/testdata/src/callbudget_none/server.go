// Fixture: the leg path gone from the server (its SelectExits moved to
// the cluster, say), analyzed as repro/internal/server.
package server // want "ExecuteLegTableCtx in repro/internal/server: none, want 1" "dsa.SelectExits in repro/internal/server: none, want 1" "GoalBlockCtx in repro/internal/server: none, want 1"

import "repro/internal/dsa"

func block(leg dsa.Leg) (*dsa.ExitBlock, error) { return dsa.FactBlock(leg, 0, nil) }
