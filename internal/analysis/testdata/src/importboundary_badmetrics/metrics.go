// Fixture: the zero-dependency metrics exporter growing a module
// dependency. Analyzed as repro/internal/metrics.
package metrics

import (
	_ "repro/internal/relation" // want "import of repro/internal/relation in"
)
