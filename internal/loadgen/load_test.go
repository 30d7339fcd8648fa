package loadgen

import (
	"net/http/httptest"
	"testing"

	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/pkg/tcq"
)

// gridServerURL serves a W×H grid in frags linear fragments from a real
// server.Server on loopback and returns its base URL.
func gridServerURL(t *testing.T, w, h, frags, cacheCap int) string {
	t.Helper()
	g, err := gen.Grid(gen.GridConfig{Width: w, Height: h, DiagonalProb: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: frags})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := tcq.NewDataset(res.Fragmentation, tcq.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewDataset(ds, server.Config{CacheCapacity: cacheCap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRunLoadAgainstServer exercises the load driver end to end: a
// repeated random workload must produce zero errors and mismatches and
// a warm second pass.
func TestRunLoadAgainstServer(t *testing.T) {
	rep, err := RunLoad(LoadConfig{
		BaseURLs:        []string{gridServerURL(t, 6, 6, 3, 512)},
		Requests:        40,
		Parallel:        4,
		Nodes:           36,
		Seed:            11,
		Repeat:          2,
		ExpectReachable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Mismatches != 0 {
		t.Fatalf("load run: %d errors, %d mismatches (first issue: %s)", rep.Errors, rep.Mismatches, rep.FirstIssue)
	}
	if rep.Requests != 80 {
		t.Errorf("requests = %d, want 80", rep.Requests)
	}
	if rep.HitRate == 0 {
		t.Error("repeated workload produced no cache hits")
	}
	if rep.P50 == 0 || rep.Max < rep.P50 {
		t.Errorf("implausible percentiles: %+v", rep)
	}
}
