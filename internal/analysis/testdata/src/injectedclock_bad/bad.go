// Fixture: bare wall-clock reads inside the breaker/retry package,
// including through an import alias. Analyzed as
// repro/internal/cluster.
package cluster

import (
	"time"

	wall "time"
)

func stamps() time.Time {
	time.Sleep(time.Millisecond)   // want "time.Sleep in repro/internal/cluster"
	<-time.After(time.Millisecond) // want "time.After in repro/internal/cluster"
	return wall.Now()              // want "time.Now in repro/internal/cluster"
}
