// Fixture: the paper-experiment package booting a server, driving load
// or building a coordinator — what benchmarks/ measures, not
// internal/bench. The planner stays importable for the §4 experiments.
// Analyzed as repro/internal/bench.
package bench

import (
	_ "repro/internal/cluster" // want "must not import repro/internal/cluster"
	_ "repro/internal/dsa"
	_ "repro/internal/loadgen" // want "must not import repro/internal/loadgen"
	_ "repro/internal/server"  // want "must not import repro/internal/server"
)
