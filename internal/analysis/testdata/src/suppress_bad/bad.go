// Fixture: every way a suppression can rot — a reason-less
// directive, an unknown analyzer name (a typo, and a retired
// analyzer), and a directive with nothing left to silence. Malformed
// directives suppress nothing, so the findings they sit on surface
// too. Analyzed as repro/internal/cluster.
package cluster

import "time"

//tcvet:ignore draincloser fixture: nothing here for this analyzer to flag

func noReason() time.Time {
	return time.Now() //tcvet:ignore bannedcall
}

func unknownAnalyzer() time.Time {
	return time.Now() //tcvet:ignore clockcheck typo in the analyzer name
}

func retiredAnalyzer() time.Time {
	return time.Now() //tcvet:ignore injectedclock the clock rule is a bannedcall entry now
}
