// Fixture: the serving layer importing the relational algebra, which
// leg tables no longer travel in. Analyzed as repro/internal/server.
package server

import (
	_ "repro/internal/relation" // want "import of repro/internal/relation in"
)
