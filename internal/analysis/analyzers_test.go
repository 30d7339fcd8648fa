package analysis

import "testing"

// The per-analyzer golden-fixture tests. A fixture is analyzed under
// the real import path its analyzer is scoped to, or under a
// repro/fixture/... path when the analyzer is not scoped by path. A
// clean case loads a fixture under a path its rules do not cover: it
// must report nothing, whatever its want comments say.

type fixtureCase struct {
	fixture, asPath string
	clean           bool
}

// runFixtures runs one subtest per case, named by its fixture, and by
// fixture@path where a fixture is loaded under more than one path.
func runFixtures(t *testing.T, a *Analyzer, cases []fixtureCase) {
	t.Helper()
	uses := map[string]int{}
	for _, c := range cases {
		uses[c.fixture]++
	}
	for _, c := range cases {
		name := c.fixture
		if uses[name] > 1 {
			name += "@" + c.asPath
		}
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, c.fixture, c.asPath, a.NeedTypes)
			if !c.clean {
				checkFixture(t, a, pkg)
				return
			}
			for _, d := range runAnalyzer(a, pkg) {
				t.Errorf("out-of-scope fixture reported %s", d)
			}
		})
	}
}

func TestImportBoundaryFixtures(t *testing.T) {
	runFixtures(t, ImportBoundary(), []fixtureCase{
		{"importboundary_badcmd", "repro/cmd/badtool", false},
		{"importboundary_badcluster", "repro/internal/cluster", false},
		{"importboundary_badbench", "repro/internal/bench", false},
		{"importboundary_badmetrics", "repro/internal/metrics", false},
		{"importboundary_badrelation", "repro/internal/server", false},
		{"importboundary_good", "repro/cmd/goodtool", false},
	})
}

func TestDrainCloserFixtures(t *testing.T) {
	runFixtures(t, DrainCloser(), []fixtureCase{
		{"draincloser_bad", "repro/fixture/draincloserbad", false},
		{"draincloser_good", "repro/fixture/drainclosergood", false},
	})
}

func TestTypedErrFixtures(t *testing.T) {
	runFixtures(t, TypedErr(), []fixtureCase{
		{"typederr_bad", "repro/internal/cluster", false},
		{"typederr_unscoped", "repro/internal/graph", false},
	})
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
	runFixtures(t, MetricName(catalog), []fixtureCase{
		{"metricname_bad", "repro/fixture/metricnamebad", false},
		{"metricname_good", "repro/fixture/metricnamegood", false},
	})
}

func TestBannedCallFixtures(t *testing.T) {
	runFixtures(t, BannedCall(), []fixtureCase{
		{"bannedcall_ctx", "repro/internal/server", false},
		{"bannedcall_ctx", "repro/benchmarks", true},
		{"bannedcall_dsa", "repro/internal/dsa", false},
		{"bannedcall_dsa", "repro/internal/phe", true},
		{"bannedcall_tc", "repro/internal/tc", false},
		{"bannedcall_graph", "repro/internal/graph", false},
		{"bannedcall_graph", "repro/internal/gen", true},
		{"bannedcall_tcq", "repro/pkg/tcq", false},
		{"bannedcall_tcq", "repro/cmd/tcfrag", true},
	})
}

// TestInjectedClockFixtures runs bannedcall's wall-clock entry.
func TestInjectedClockFixtures(t *testing.T) {
	runFixtures(t, BannedCall(), []fixtureCase{
		{"injectedclock_bad", "repro/internal/cluster", false},
		{"injectedclock_good", "repro/internal/cluster", false},
		{"injectedclock_unscoped", "repro/internal/server", false},
	})
}

// TestCallBudgetFixtures runs bannedcall's leg-path budget entries.
func TestCallBudgetFixtures(t *testing.T) {
	runFixtures(t, BannedCall(), []fixtureCase{
		{"callbudget_good", "repro/internal/server", false},
		{"callbudget_double", "repro/internal/server", false},
		{"callbudget_none", "repro/internal/server", false},
		{"callbudget_cluster", "repro/internal/cluster", false},
		{"callbudget_cluster", "repro/internal/cluster/peer", false},
		{"callbudget_cluster", "repro/internal/store", true},
	})
}

func TestKeyedMapFixtures(t *testing.T) {
	runFixtures(t, KeyedMap(), []fixtureCase{
		{"keyedmap_fragmenter", "repro/internal/fragment/center", false},
		{"keyedmap_fragmenter", "repro/internal/fragment/linear", false},
		{"keyedmap_fragmenter", "repro/internal/fragment/bea", false},
		{"keyedmap_fragmenter", "repro/internal/fragment/kconn", true},
		{"keyedmap_fragment", "repro/internal/fragment", false},
		{"keyedmap_dsa", "repro/internal/dsa", false},
		{"keyedmap_tc", "repro/internal/tc", false},
		{"keyedmap_graph", "repro/internal/graph", false},
		{"keyedmap_graph", "repro/internal/phe", true},
	})
}
