package server

import (
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/pkg/tcq"
)

// This file is the server's Prometheus instrumentation: one registry
// per Server, populated at deploy time and served at GET /metrics.
// The quantities exported are exactly the ones the paper's design
// lives on — per-leg/per-query execution cost (latency histograms per
// engine and mode), complementary-table reuse (leg-cache hit /
// invalidated / retained counters), and update-epoch churn (swap
// count, apply latency, rebuilt-vs-shared fragments) — plus the
// vanilla serving vitals (in-flight requests, per-endpoint request and
// error counters).
//
// Hot-path discipline: query latency is observed with one histogram
// update per pair (the engine/mode child is resolved through a
// read-locked map — the label cardinality is tiny and the lookup is
// off the leg execution path), cache counters are callback collectors
// read under the cache lock only at scrape time, and the epoch/apply
// metrics ride the existing OnApply subscription. Nothing here adds a
// lock to leg execution.

// serverMetrics bundles the server's registry and its instrument
// handles.
type serverMetrics struct {
	reg *metrics.Registry

	// queryLatency is tc_query_duration_seconds{engine,mode}: one
	// observation per (source, target) pair executed, labeled by the
	// concrete engine the planner resolved and the query mode.
	queryLatency *metrics.HistogramVec

	// inflight is tc_inflight_requests: HTTP requests currently being
	// served (all endpoints).
	inflight *metrics.Gauge

	// httpRequests / httpErrors are tc_http_requests_total{endpoint}
	// and tc_http_errors_total{endpoint} — errors are responses with a
	// 4xx/5xx status.
	httpRequests *metrics.CounterVec
	httpErrors   *metrics.CounterVec

	// epochSwaps, applyLatency, fragmentsRebuilt/Shared are the write
	// path: one OnApply notification per applied batch.
	epochSwaps       *metrics.Counter
	applyLatency     *metrics.Histogram
	fragmentsRebuilt *metrics.Counter
	fragmentsShared  *metrics.Counter
	updateOpsApplied *metrics.Counter
	recomputedSets   *metrics.Counter
	globalSearchRuns *metrics.Counter
}

// newServerMetrics builds the registry for one deployment. The cache
// and dataset are captured by the callback collectors, so their
// counters are always scrape-time fresh without double bookkeeping.
func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg}

	m.queryLatency = reg.HistogramVec("tc_query_duration_seconds",
		"Per-pair query execution latency by concrete engine and mode.",
		nil, "engine", "mode")
	m.inflight = reg.Gauge("tc_inflight_requests",
		"HTTP requests currently in flight.")
	m.httpRequests = reg.CounterVec("tc_http_requests_total",
		"HTTP requests served, by endpoint.", "endpoint")
	m.httpErrors = reg.CounterVec("tc_http_errors_total",
		"HTTP responses with a 4xx/5xx status, by endpoint.", "endpoint")

	// Leg cache: scrape-time reads of the counters the cache already
	// maintains under its lock. One snapshot per sample keeps the
	// collectors trivially correct; the lock is uncontended at scrape
	// cadence.
	cache := s.cache
	reg.GaugeFunc("tc_legcache_entries",
		"Cached leg relations currently held.",
		func() float64 { return float64(cache.snapshot().Entries) })
	reg.CounterFunc("tc_legcache_hits_total",
		"Leg-cache lookups answered from cache.",
		func() float64 { return float64(cache.snapshot().Hits) })
	reg.CounterFunc("tc_legcache_misses_total",
		"Leg-cache lookups that executed the leg.",
		func() float64 { return float64(cache.snapshot().Misses) })
	reg.CounterFunc("tc_legcache_evictions_total",
		"Entries dropped by the LRU bound.",
		func() float64 { return float64(cache.snapshot().Evictions) })
	reg.CounterFunc("tc_legcache_invalidated_total",
		"Entries a sweep dropped on an epoch swap (site rebuilt).",
		func() float64 { return float64(cache.snapshot().Invalidated) })
	reg.CounterFunc("tc_legcache_retained_total",
		"Entries a sweep kept on an epoch swap (site still current).",
		func() float64 { return float64(cache.snapshot().Retained) })
	reg.CounterFunc("tc_legcache_sweeps_total",
		"Sweep passes (one per applied batch).",
		func() float64 { return float64(cache.snapshot().Sweeps) })

	ds := s.ds
	reg.GaugeFunc("tc_epoch",
		"Current dataset generation (advances once per applied batch).",
		func() float64 { return float64(ds.Epoch()) })
	start := s.start
	reg.GaugeFunc("tc_uptime_seconds",
		"Seconds since the server deployed.",
		func() float64 { return time.Since(start).Seconds() })

	// Persistence: scrape-time reads of the dataset's journal and
	// checkpoint counters. All-zero when the deployment has no store
	// directory attached.
	reg.CounterFunc("tc_store_journal_records_total",
		"Update batches appended to the apply journal.",
		func() float64 { return float64(ds.PersistStats().JournalRecords) })
	reg.GaugeFunc("tc_store_journal_append_seconds",
		"Cumulative journal append+fsync time.",
		func() float64 { return ds.PersistStats().JournalAppendSeconds })
	reg.CounterFunc("tc_store_checkpoints_total",
		"Snapshot checkpoints written to the store directory.",
		func() float64 { return float64(ds.PersistStats().Checkpoints) })
	reg.GaugeFunc("tc_store_checkpoint_seconds",
		"Cumulative snapshot checkpoint time.",
		func() float64 { return ds.PersistStats().CheckpointSeconds })
	reg.GaugeFunc("tc_store_save_seconds",
		"Cumulative snapshot write time (checkpoints and explicit saves).",
		func() float64 { return ds.PersistStats().SaveSeconds })
	reg.GaugeFunc("tc_store_load_seconds",
		"Wall-clock time of the boot-time snapshot or checkpoint load.",
		func() float64 { return ds.PersistStats().LoadSeconds })

	m.epochSwaps = reg.Counter("tc_epoch_swaps_total",
		"Copy-on-write generation swaps (applied batches).")
	m.applyLatency = reg.Histogram("tc_apply_duration_seconds",
		"Wall-clock latency of Dataset.Apply (validation, incremental rebuild, swap).",
		nil)
	m.fragmentsRebuilt = reg.Counter("tc_fragments_rebuilt_total",
		"Fragments re-preprocessed across all applied batches.")
	m.fragmentsShared = reg.Counter("tc_fragments_shared_total",
		"Fragments structurally shared across swaps (rebuild skipped).")
	m.updateOpsApplied = reg.Counter("tc_update_ops_applied_total",
		"Edge operations landed by applied batches.")
	m.recomputedSets = reg.Counter("tc_recomputed_sets_total",
		"Disconnection sets whose complementary tables were recomputed.")
	m.globalSearchRuns = reg.Counter("tc_global_search_runs_total",
		"Global single-source searches triggered by recomputation.")
	return m
}

// observeApply records one applied batch — called from the server's
// OnApply subscriber, in epoch order.
func (m *serverMetrics) observeApply(r tcq.ApplyResult) {
	m.epochSwaps.Inc()
	m.applyLatency.Observe(r.Elapsed.Seconds())
	m.fragmentsRebuilt.Add(uint64(len(r.Stats.SitesRebuilt)))
	m.fragmentsShared.Add(uint64(r.Stats.SitesShared))
	m.updateOpsApplied.Add(uint64(r.Stats.Ops))
	m.recomputedSets.Add(uint64(r.Stats.RecomputedSets))
	m.globalSearchRuns.Add(uint64(r.Stats.DijkstraRuns))
}

// observeQuery records one executed pair.
func (m *serverMetrics) observeQuery(engine string, mode tcq.Mode, elapsed time.Duration) {
	m.queryLatency.With(engine, mode.String()).Observe(elapsed.Seconds())
}

// statusRecorder captures the response status for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps the API mux with the request-level metrics: the
// in-flight gauge and the per-endpoint request/error counters. The
// endpoint label is the mux pattern vocabulary (one label value per
// route, never per URL — bounded cardinality even under fuzzed paths).
func (m *serverMetrics) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := m.httpRequests.With(endpoint)
	errors := m.httpErrors.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Inc()
		defer m.inflight.Dec()
		requests.Inc()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		if rec.status >= 400 {
			errors.Inc()
		}
	}
}
