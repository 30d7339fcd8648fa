// Fixture: context.TODO called, taken as a function value, and called
// through an import alias (which the text `context.TODO()` misses).
// Analyzed as repro/internal/server (reports, and misses the one leg
// path there) and repro/benchmarks (exempt: none).
package ctx // want "ExecuteLegTableCtx in repro/internal/server: none, want 1" "dsa.SelectExits in repro/internal/server: none, want 1" "GoalBlockCtx in repro/internal/server: none, want 1"

import (
	"context"

	c "context"
)

func entry() (context.Context, context.Context) {
	todo := context.TODO // want "context.TODO"
	_ = context.TODO()   // want "context.TODO"
	// A comment naming context.TODO() is not a reference.
	return todo(), c.TODO() // want "context.TODO"
}
