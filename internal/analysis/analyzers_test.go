package analysis

import "testing"

// The per-analyzer golden-fixture tests. Untyped fixtures borrow the
// real import path their analyzer is scoped to; typed fixtures live
// under unique repro/fixture/... paths so the shared loader can cache
// the stdlib across them.

func TestImportBoundaryFixtures(t *testing.T) {
	cases := []struct{ fixture, asPath string }{
		{"importboundary_badcmd", "repro/cmd/badtool"},
		{"importboundary_badcluster", "repro/internal/cluster"},
		{"importboundary_badbench", "repro/internal/bench"},
		{"importboundary_badmetrics", "repro/internal/metrics"},
		{"importboundary_good", "repro/cmd/goodtool"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			checkFixture(t, ImportBoundary(), loadFixture(t, c.fixture, c.asPath, false))
		})
	}
}

func TestInjectedClockFixtures(t *testing.T) {
	cases := []struct{ fixture, asPath string }{
		{"injectedclock_bad", "repro/internal/cluster"},
		{"injectedclock_good", "repro/internal/cluster"},
		{"injectedclock_unscoped", "repro/internal/server"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			checkFixture(t, InjectedClock(), loadFixture(t, c.fixture, c.asPath, false))
		})
	}
}

func TestDrainCloserFixtures(t *testing.T) {
	cases := []struct{ fixture, asPath string }{
		{"draincloser_bad", "repro/fixture/draincloserbad"},
		{"draincloser_good", "repro/fixture/drainclosergood"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			checkFixture(t, DrainCloser(), loadFixture(t, c.fixture, c.asPath, true))
		})
	}
}

func TestTypedErrFixtures(t *testing.T) {
	cases := []struct{ fixture, asPath string }{
		{"typederr_bad", "repro/internal/cluster"},
		{"typederr_unscoped", "repro/internal/graph"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			checkFixture(t, TypedErr(), loadFixture(t, c.fixture, c.asPath, false))
		})
	}
}

func TestMetricNameFixtures(t *testing.T) {
	catalog := map[string]bool{
		// Names the bad fixture registers whose ONLY defect is
		// something other than documentation, plus everything the good
		// fixture registers.
		"tc_fixture_requests":       true,
		"tc_fixture_latency_ms":     true,
		"tc_fixture_rpcs_total":     true,
		"tc_fixture_state":          true,
		"tc_fixture_requests_total": true,
		"tc_fixture_peers":          true,
		"tc_fixture_step_seconds":   true,
		"tc_fixture_rpc_seconds":    true,
		"tc_fixture_evals_total":    true,
	}
	cases := []struct{ fixture, asPath string }{
		{"metricname_bad", "repro/fixture/metricnamebad"},
		{"metricname_good", "repro/fixture/metricnamegood"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			checkFixture(t, MetricName(catalog), loadFixture(t, c.fixture, c.asPath, true))
		})
	}
}
