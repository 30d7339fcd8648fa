package analysis

import (
	"strings"
	"testing"
)

// The suppression contract, end to end through RunSuite: well-formed
// directives silence exactly their diagnostic; a directive without a
// reason or with an unknown analyzer silences NOTHING and is itself a
// finding; a directive with nothing left to silence is a finding. The
// last two are what make every suppression load-bearing — deleting or
// rotting one fails the gate.

// Unchecked, the package stands for one that failed to type-check: the
// typed analyzers skip it, so their directives are not unused.
func TestSuppressionsSilenceFindings(t *testing.T) {
	for _, typed := range []bool{true, false} {
		pkg := loadFixture(t, "suppress_ok", "repro/internal/cluster", typed)
		for _, d := range RunSuite(Suite(Options{}), []*Package{pkg}) {
			t.Errorf("suppressed fixture (typed %v) produced a diagnostic: %s", typed, d)
		}
	}
}

func TestSuppressionHygiene(t *testing.T) {
	pkg := loadFixture(t, "suppress_bad", "repro/internal/cluster", true)
	diags := RunSuite(Suite(Options{}), []*Package{pkg})

	wants := []struct{ analyzer, substr string }{
		// The reason-less directive is rejected...
		{"tcvet", "gives no reason"},
		// ...and, because it silences nothing, the violation under it
		// surfaces anyway.
		{"bannedcall", "time.Now in repro/internal/cluster"},
		// Same pair for the unknown-analyzer typo...
		{"tcvet", "unknown analyzer clockcheck"},
		{"bannedcall", "time.Now in repro/internal/cluster"},
		// ...and for a retired analyzer's name.
		{"tcvet", "unknown analyzer injectedclock"},
		{"bannedcall", "time.Now in repro/internal/cluster"},
		// The well-formed directive with nothing to silence.
		{"tcvet", "unused suppression for draincloser"},
	}
	remaining := make([]Diagnostic, len(diags))
	copy(remaining, diags)
	for _, w := range wants {
		found := -1
		for i, d := range remaining {
			if d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				found = i
				break
			}
		}
		if found < 0 {
			t.Errorf("missing [%s] diagnostic containing %q", w.analyzer, w.substr)
			continue
		}
		remaining = append(remaining[:found], remaining[found+1:]...)
	}
	for _, d := range remaining {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
