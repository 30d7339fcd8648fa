// Fixture: every suppression form doing its job — a same-line
// directive, a line-above directive, and a whole-file exemption.
// Analyzed as repro/internal/cluster; RunSuite must return nothing.
package cluster

import (
	"fmt"
	"time"
)

//tcvet:ignore-file typederr fixture: client-side file, errors never cross the wire

func stamp() time.Time {
	return time.Now() //tcvet:ignore bannedcall fixture: latency stamp, measurement not control flow
}

func above() error {
	//tcvet:ignore bannedcall fixture: directive on the line above
	t := time.Now()
	return fmt.Errorf("at %v", t)
}
