// Fixture: a binary reaching under the pkg/tcq facade straight into
// the planner. Analyzed as repro/cmd/badtool.
package main

import (
	_ "repro/internal/dsa" // want "import of repro/internal/dsa in"
)
