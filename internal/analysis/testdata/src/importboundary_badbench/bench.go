// Fixture: the paper-experiment package booting a server, driving load
// or building a coordinator — what benchmarks/ measures, not
// internal/bench. The planner stays importable for the §4 experiments.
// Analyzed as repro/internal/bench.
package bench

import (
	_ "repro/internal/cluster" // want "import of repro/internal/cluster in"
	_ "repro/internal/dsa"
	_ "repro/internal/loadgen" // want "import of repro/internal/loadgen in"
	_ "repro/internal/server"  // want "import of repro/internal/server in"
)
