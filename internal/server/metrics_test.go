package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// scrape pulls GET /metrics off the handler and parses the exposition
// text — a malformed exporter fails here before it fails in CI.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	samples, err := metrics.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return samples
}

// post fires one JSON request at the handler and returns the status.
func post(t *testing.T, h http.Handler, path, body string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestMetricsEndpoint drives queries, an error, and an update through
// the HTTP surface and checks the exported series: the acceptance
// criterion's ≥10 distinct series, the per-endpoint counters, the
// engine/mode latency histograms, and the cache + epoch movement
// across a write.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 256})
	h := srv.Handler()

	before := scrape(t, h)
	// The registry must expose the full catalog even before traffic.
	for _, name := range []string{
		"tc_inflight_requests",
		"tc_legcache_entries",
		"tc_legcache_hits_total",
		"tc_legcache_misses_total",
		"tc_legcache_evictions_total",
		"tc_legcache_invalidated_total",
		"tc_legcache_retained_total",
		"tc_legcache_sweeps_total",
		"tc_epoch",
		"tc_epoch_swaps_total",
		"tc_fragments_rebuilt_total",
		"tc_fragments_shared_total",
		"tc_update_ops_applied_total",
		"tc_recomputed_sets_total",
		"tc_global_search_runs_total",
		"tc_apply_duration_seconds_count",
		"tc_uptime_seconds",
	} {
		if _, ok := before[name]; !ok {
			t.Errorf("metrics catalog missing %s before traffic", name)
		}
	}
	if len(before) < 10 {
		t.Fatalf("only %d series exported, acceptance wants >= 10", len(before))
	}

	// Traffic: two cost queries (same pair — the second hits the leg
	// cache), one connectivity query, one bad request.
	for i := 0; i < 2; i++ {
		if code := post(t, h, "/v1/query", `{"sources":[0],"targets":[63],"mode":"cost"}`); code != http.StatusOK {
			t.Fatalf("/v1/query: status %d", code)
		}
	}
	if code := post(t, h, "/v1/query", `{"sources":[0],"targets":[63],"mode":"connectivity"}`); code != http.StatusOK {
		t.Fatalf("/v1/query connectivity: status %d", code)
	}
	if code := post(t, h, "/v1/query", `{"sources":[0],"targets":[63],"engine":"nope"}`); code != http.StatusBadRequest {
		t.Fatalf("bad engine: status %d, want 400", code)
	}

	after := scrape(t, h)
	if got := after[`tc_http_requests_total{endpoint="/v1/query"}`] - before[`tc_http_requests_total{endpoint="/v1/query"}`]; got != 4 {
		t.Errorf("request counter advanced by %v, want 4", got)
	}
	if got := after[`tc_http_errors_total{endpoint="/v1/query"}`] - before[`tc_http_errors_total{endpoint="/v1/query"}`]; got != 1 {
		t.Errorf("error counter advanced by %v, want 1", got)
	}
	// The planner resolved a concrete engine; exactly three pair
	// executions must have been observed across the mode labels.
	var observed float64
	for k, v := range after {
		if strings.HasPrefix(k, "tc_query_duration_seconds_count{") {
			observed += v
		}
	}
	if observed != 3 {
		t.Errorf("query latency histogram observed %v pairs, want 3", observed)
	}
	for k := range after {
		if strings.Contains(k, `engine="auto"`) {
			t.Errorf("latency histogram labeled with unresolved engine: %s", k)
		}
	}
	if after["tc_legcache_hits_total"] <= before["tc_legcache_hits_total"] {
		t.Errorf("cache hits did not advance (repeat query should hit)")
	}
	if after["tc_legcache_misses_total"] <= before["tc_legcache_misses_total"] {
		t.Errorf("cache misses did not advance")
	}

	// A write: epoch swap, apply histogram, fragment rebuild/share
	// counters and the cache sweep all move; with 4 fragments and a
	// fragment-0 edge, at least one site is rebuilt and the warm
	// entries on other sites are retained or invalidated.
	if code := post(t, h, "/v1/update",
		`{"ops":[{"op":"insert","fragment":0,"from":0,"to":1,"weight":9}]}`); code != http.StatusOK {
		t.Fatalf("/v1/update: status %d", code)
	}
	final := scrape(t, h)
	if final["tc_epoch_swaps_total"] != after["tc_epoch_swaps_total"]+1 {
		t.Errorf("epoch swaps = %v, want +1", final["tc_epoch_swaps_total"])
	}
	if final["tc_epoch"] != after["tc_epoch"]+1 {
		t.Errorf("tc_epoch = %v, want %v", final["tc_epoch"], after["tc_epoch"]+1)
	}
	if final["tc_apply_duration_seconds_count"] != 1 {
		t.Errorf("apply histogram count = %v, want 1", final["tc_apply_duration_seconds_count"])
	}
	if final["tc_fragments_rebuilt_total"] < 1 {
		t.Errorf("fragments rebuilt = %v, want >= 1", final["tc_fragments_rebuilt_total"])
	}
	if final["tc_legcache_sweeps_total"] != after["tc_legcache_sweeps_total"]+1 {
		t.Errorf("cache sweeps = %v, want +1", final["tc_legcache_sweeps_total"])
	}
	moved := final["tc_legcache_invalidated_total"] - after["tc_legcache_invalidated_total"] +
		final["tc_legcache_retained_total"] - after["tc_legcache_retained_total"]
	if moved <= 0 {
		t.Errorf("neither invalidated nor retained advanced across the update (inv %v->%v, ret %v->%v)",
			after["tc_legcache_invalidated_total"], final["tc_legcache_invalidated_total"],
			after["tc_legcache_retained_total"], final["tc_legcache_retained_total"])
	}
	if final["tc_update_ops_applied_total"] != 1 {
		t.Errorf("ops applied = %v, want 1", final["tc_update_ops_applied_total"])
	}
}

// TestStatsEmbedsMetrics: /stats carries the flattened registry
// snapshot, so one poll sees both the legacy counters and the
// Prometheus series.
func TestStatsEmbedsMetrics(t *testing.T) {
	srv, _ := newGridServer(t, 4, 4, 2, Config{CacheCapacity: 16})
	if code := post(t, srv.Handler(), "/v1/query", `{"sources":[0],"targets":[15],"mode":"cost"}`); code != http.StatusOK {
		t.Fatalf("/v1/query: status %d", code)
	}
	st := srv.Stats()
	if len(st.Metrics) < 10 {
		t.Fatalf("/stats metrics snapshot has %d series, want >= 10", len(st.Metrics))
	}
	if _, ok := st.Metrics["tc_legcache_hits_total"]; !ok {
		t.Errorf("stats metrics missing tc_legcache_hits_total: %v", st.Metrics)
	}
}

// TestMetricsConcurrentScrape races scrapes against query and update
// traffic — the -race proof that the registry, the cache collectors
// and the /stats snapshot are safe against the hot path.
func TestMetricsConcurrentScrape(t *testing.T) {
	srv, _ := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 64})
	h := srv.Handler()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch w {
				case 0:
					post(t, h, "/v1/query", `{"sources":[0],"targets":[63],"mode":"cost"}`)
				case 1:
					post(t, h, "/v1/update",
						`{"ops":[{"op":"insert","fragment":0,"from":0,"to":1,"weight":1e9},{"op":"delete","fragment":0,"from":0,"to":1,"weight":1e9}]}`)
				case 2:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				case 3:
					_ = srv.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := metrics.ParseText(strings.NewReader(scrapeRaw(t, h))); err != nil {
		t.Fatalf("final scrape unparseable: %v", err)
	}
}

// scrapeRaw returns the raw exposition text.
func scrapeRaw(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}
