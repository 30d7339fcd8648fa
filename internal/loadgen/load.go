// Package loadgen is the load driver for a running tcserver: an HTTP
// client of the /v1 surface (it shares only the server's wire types),
// with a replay oracle, latency percentiles and SLO budget evaluation.
// cmd/tcload is its CLI and only caller (the serving ledger under
// benchmarks/ has its own closed-loop driver).
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// LoadConfig parameterises one load-generation run against a running
// tcserver — the repository's counterpart of a parallel benchmark
// query driver: N workers firing random source/target queries, with
// optional replay passes to exercise the leg cache.
type LoadConfig struct {
	// BaseURLs locates the server, e.g. "http://127.0.0.1:8642", or the
	// nodes of a multi-node cluster: read queries round-robin across the
	// addresses by request index (every node is a full coordinator, so
	// any of them answers any query), while writes, /stats differencing
	// and the /metrics scrape pin to the first address — writes because
	// the fan-out keeps peers coherent from one entry point, stats
	// because cache deltas are per-node counters that only difference
	// cleanly against one node. Required.
	BaseURLs []string
	// Requests is the number of queries per pass.
	Requests int
	// Parallel is the worker count.
	Parallel int
	// Nodes bounds the random workload: src and dst are drawn uniformly
	// from [0, Nodes). Required.
	Nodes int
	// Engine forces the per-request engine ("" = the server's planner
	// chooses).
	Engine string
	// Mode is "query" (shortest path) or "connected" (reachability).
	Mode string
	// Seed drives the random workload.
	Seed int64
	// Repeat is the number of passes over the same workload (≥ 1).
	// Passes after the first replay identical queries, so their answers
	// must match pass one exactly — the cache-correctness oracle — and
	// the leg cache should start hitting.
	Repeat int
	// Duration, when positive, keeps replaying passes until at least
	// this much wall-clock time has elapsed (and at least Repeat passes
	// ran) — the time-bounded shape the CI latency-SLO gate uses for
	// its sustained mixed read/write load. The replay oracle still
	// holds: every extra pass must answer identically to pass one.
	Duration time.Duration
	// ExpectReachable asserts every answer is reachable/connected —
	// the oracle for workloads on connected graphs (grids), where an
	// unreachable answer can only be a server bug.
	ExpectReachable bool
	// WriteRate is the fraction of workload slots that become write
	// transactions instead of queries (0 = read-only). A write slot
	// fires one POST /v1/update batch that inserts a heavy shortcut
	// edge (weight 1e9 — far above any real path cost, so query
	// answers are invariant) between the slot's random node pair on
	// fragment 0 and deletes it again in the same transaction. The
	// edits cancel out, so the batch leaves the fragment untouched: a
	// write costs an epoch swap, a leg-cache sweep and, on a server
	// started with -store, a journal append; no site is rebuilt and no
	// complementary table recomputed. Mixing writes this way keeps the
	// replay oracle exact while measuring read latency beside a
	// steady stream of writes.
	WriteRate float64
	// RetryTransient, when positive, re-fires a read query up to this
	// many extra times after a transient gateway failure (HTTP 502 or
	// 504 — the statuses a cluster node answers with while a peer is
	// down or timing out, before its breaker opens and local fallback
	// takes over). Writes are never retried: an ambiguous update
	// failure must surface, not double-apply. Retries are counted in
	// the report so a chaos run can distinguish "rode through N blips"
	// from "saw nothing".
	RetryTransient int
}

// requestTimeout bounds each request the driver sends.
const requestTimeout = 30 * time.Second

// statusError is a non-2xx response, preserving the code so the load
// loop can tell transient gateway blips (502/504) from hard failures.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	if e.body == "" {
		return fmt.Sprintf("status %d", e.code)
	}
	return fmt.Sprintf("status %d: %s", e.code, e.body)
}

// transient reports whether err is a retryable gateway blip.
func transient(err error) bool {
	var se *statusError
	return errors.As(err, &se) &&
		(se.code == http.StatusBadGateway || se.code == http.StatusGatewayTimeout)
}

// LoadReport is the outcome of one load run. The JSON rendering is
// the machine-readable half of the tcload SLO gate (durations are
// nanoseconds, as Go renders time.Duration).
type LoadReport struct {
	// Requests is the total number of requests fired across all passes.
	Requests int `json:"requests"`
	// Errors counts transport failures and non-2xx responses.
	Errors int `json:"errors"`
	// Mismatches counts replay answers that differ from the first pass
	// plus (with ExpectReachable) unreachable answers.
	Mismatches int `json:"mismatches"`
	// Unreachable counts answers with reachable/connected = false.
	Unreachable int `json:"unreachable"`
	// FirstIssue describes the first error or mismatch, for diagnosis.
	FirstIssue string `json:"first_issue,omitempty"`
	// Elapsed is the wall-clock time of all passes, QPS the overall
	// request throughput.
	Elapsed time.Duration `json:"elapsed_ns"`
	QPS     float64       `json:"qps"`
	// Latency percentiles across all requests.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
	// Passes is the number of workload passes run (> Repeat when
	// Duration kept the load going).
	Passes int `json:"passes"`
	// PassQPS is the throughput of each pass — the cache warm-up curve.
	PassQPS []float64 `json:"pass_qps"`
	// CacheHits/CacheMisses are the server-side deltas over the run of
	// the legs that saved work and those that did it (legLookups),
	// HitRate their ratio (0 when no lookups).
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	// Writes counts the update transactions fired (WriteRate > 0), and
	// WriteP50/WriteP95/WriteP99 their latency percentiles.
	Writes   int           `json:"writes"`
	WriteP50 time.Duration `json:"write_p50_ns"`
	WriteP95 time.Duration `json:"write_p95_ns"`
	WriteP99 time.Duration `json:"write_p99_ns"`
	// EpochDelta is the server epoch advance over the run — one per
	// applied transaction.
	EpochDelta uint64 `json:"epoch_delta"`
	// TransientRetries counts read queries re-fired after a transient
	// 502/504 (RetryTransient > 0). A request that eventually succeeds
	// after retries is not an error.
	TransientRetries int `json:"transient_retries"`
	// Metrics is the server's /metrics scrape taken after the run
	// (name{labels} -> value) — server-side truth beside the
	// client-side latencies, and the proof the exposition format
	// parses.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Format renders the report as a human-readable block.
func (r *LoadReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "requests: %d  errors: %d  mismatches: %d  unreachable: %d\n",
		r.Requests, r.Errors, r.Mismatches, r.Unreachable)
	fmt.Fprintf(&sb, "elapsed: %v  QPS: %.1f", r.Elapsed.Round(time.Millisecond), r.QPS)
	if len(r.PassQPS) > 1 {
		fmt.Fprintf(&sb, "  per-pass:")
		for _, q := range r.PassQPS {
			fmt.Fprintf(&sb, " %.1f", q)
		}
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "latency p50: %v  p95: %v  p99: %v  max: %v\n",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	fmt.Fprintf(&sb, "legs: %d hits, %d misses (leg cache and site tables), hit rate %.1f%%\n",
		r.CacheHits, r.CacheMisses, 100*r.HitRate)
	if r.TransientRetries > 0 {
		fmt.Fprintf(&sb, "transient retries: %d (502/504 blips ridden through)\n", r.TransientRetries)
	}
	if r.Writes > 0 {
		fmt.Fprintf(&sb, "writes: %d (epoch +%d)  write latency p50: %v  p95: %v  p99: %v\n",
			r.Writes, r.EpochDelta, r.WriteP50.Round(time.Microsecond),
			r.WriteP95.Round(time.Microsecond), r.WriteP99.Round(time.Microsecond))
	}
	if r.FirstIssue != "" {
		fmt.Fprintf(&sb, "first issue: %s\n", r.FirstIssue)
	}
	return sb.String()
}

// answer is the part of a response the replay oracle compares.
type answer struct {
	reachable bool
	cost      float64
	hasCost   bool
}

// RunLoad fires the configured workload and reports throughput,
// latency percentiles, correctness counters and the server's cache
// delta.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	bases := cfg.BaseURLs
	if len(bases) == 0 {
		return nil, fmt.Errorf("loadgen: BaseURLs required")
	}
	// primary is the pinned node: writes, stats differencing, metrics.
	primary := bases[0]
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	if cfg.Repeat < 1 {
		cfg.Repeat = 1
	}
	if cfg.Mode == "" {
		cfg.Mode = "query"
	}
	if cfg.Mode != "query" && cfg.Mode != "connected" {
		return nil, fmt.Errorf("loadgen: unknown mode %q (want query or connected)", cfg.Mode)
	}
	if cfg.WriteRate < 0 || cfg.WriteRate >= 1 {
		return nil, fmt.Errorf("loadgen: WriteRate %v out of [0, 1)", cfg.WriteRate)
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("loadgen: need Nodes > 0")
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: need Requests > 0")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pairs := make([][2]int, cfg.Requests)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(cfg.Nodes), rng.Intn(cfg.Nodes)}
	}
	// Write slots are chosen per index (not per pass), so replay passes
	// repeat the same read/write interleaving and the replay oracle
	// stays aligned with its baseline.
	writeSlot := make([]bool, len(pairs))
	if cfg.WriteRate > 0 {
		wrng := rand.New(rand.NewSource(cfg.Seed + 1))
		for i := range writeSlot {
			writeSlot[i] = wrng.Float64() < cfg.WriteRate
		}
	}

	client := &http.Client{Timeout: requestTimeout}
	statsBefore, err := fetchStats(client, primary)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /stats before run: %v", err)
	}

	rep := &LoadReport{}
	baseline := make([]answer, len(pairs))
	latencies := make([]time.Duration, 0, len(pairs)*cfg.Repeat)
	var writeLats []time.Duration
	var (
		mu         sync.Mutex // guards latencies, writeLats and FirstIssue
		errorsN    atomic.Int64
		mismatches atomic.Int64
		unreach    atomic.Int64
		writesN    atomic.Int64
		retriesN   atomic.Int64
	)
	issue := func(format string, args ...any) {
		mu.Lock()
		if rep.FirstIssue == "" {
			rep.FirstIssue = fmt.Sprintf(format, args...)
		}
		mu.Unlock()
	}

	start := time.Now()
	for pass := 0; ; pass++ {
		// Stop after Repeat passes — or, with a Duration, keep replaying
		// until the clock runs out (whichever keeps the load running
		// longer).
		if pass >= cfg.Repeat && (cfg.Duration <= 0 || time.Since(start) >= cfg.Duration) {
			break
		}
		passStart := time.Now()
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Parallel; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				local := make([]time.Duration, 0, len(pairs)/cfg.Parallel+1)
				localWrites := []time.Duration(nil)
				for i := range idx {
					p := pairs[i]
					if writeSlot[i] {
						t0 := time.Now()
						err := fireUpdate(client, primary, p[0], p[1])
						localWrites = append(localWrites, time.Since(t0))
						writesN.Add(1)
						if err != nil {
							errorsN.Add(1)
							issue("update fragment 0 edge %d->%d: %v", p[0], p[1], err)
						}
						continue
					}
					t0 := time.Now()
					ans, err := fire(client, cfg, bases[i%len(bases)], p[0], p[1])
					for attempt := 0; err != nil && transient(err) && attempt < cfg.RetryTransient; attempt++ {
						retriesN.Add(1)
						time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
						ans, err = fire(client, cfg, bases[i%len(bases)], p[0], p[1])
					}
					local = append(local, time.Since(t0))
					if err != nil {
						errorsN.Add(1)
						issue("query %d->%d: %v", p[0], p[1], err)
						continue
					}
					if !ans.reachable {
						unreach.Add(1)
						if cfg.ExpectReachable {
							mismatches.Add(1)
							issue("query %d->%d: unreachable, oracle expects reachable", p[0], p[1])
						}
					}
					if pass == 0 {
						baseline[i] = ans
					} else if b := baseline[i]; b.reachable != ans.reachable ||
						(b.hasCost && ans.hasCost && math.Abs(b.cost-ans.cost) > 1e-9) {
						mismatches.Add(1)
						issue("query %d->%d: pass %d answered (reachable=%v cost=%v), pass 1 (reachable=%v cost=%v)",
							p[0], p[1], pass+1, ans.reachable, ans.cost, b.reachable, b.cost)
					}
				}
				mu.Lock()
				latencies = append(latencies, local...)
				writeLats = append(writeLats, localWrites...)
				mu.Unlock()
			}()
		}
		for i := range pairs {
			idx <- i
		}
		close(idx)
		wg.Wait()
		rep.PassQPS = append(rep.PassQPS, float64(len(pairs))/time.Since(passStart).Seconds())
	}
	rep.Elapsed = time.Since(start)
	rep.Passes = len(rep.PassQPS)
	rep.Requests = len(pairs) * rep.Passes
	rep.Errors = int(errorsN.Load())
	rep.Mismatches = int(mismatches.Load())
	rep.Unreachable = int(unreach.Load())
	rep.TransientRetries = int(retriesN.Load())
	if rep.Elapsed > 0 {
		rep.QPS = float64(rep.Requests) / rep.Elapsed.Seconds()
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = percentile(latencies, 0.50)
	rep.P95 = percentile(latencies, 0.95)
	rep.P99 = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.Max = latencies[n-1]
	}
	rep.Writes = int(writesN.Load())
	sort.Slice(writeLats, func(i, j int) bool { return writeLats[i] < writeLats[j] })
	rep.WriteP50 = percentile(writeLats, 0.50)
	rep.WriteP95 = percentile(writeLats, 0.95)
	rep.WriteP99 = percentile(writeLats, 0.99)

	statsAfter, err := fetchStats(client, primary)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /stats after run: %v", err)
	}
	hitsBefore, missesBefore := legLookups(statsBefore)
	hitsAfter, missesAfter := legLookups(statsAfter)
	rep.CacheHits, rep.CacheMisses = hitsAfter-hitsBefore, missesAfter-missesBefore
	if total := rep.CacheHits + rep.CacheMisses; total > 0 {
		rep.HitRate = float64(rep.CacheHits) / float64(total)
	}
	rep.EpochDelta = statsAfter.Epoch - statsBefore.Epoch
	// Scrape the server's Prometheus surface into the report: the
	// server-side counters beside the client-side latencies, and the CI
	// assertion that the exposition format stays parseable.
	m, err := fetchMetrics(client, primary)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /metrics after run: %v", err)
	}
	rep.Metrics = m
	return rep, nil
}

// fireUpdate sends one write transaction over POST /v1/update: insert
// a heavy (answer-invariant) shortcut edge into fragment 0 and delete
// it again in the same atomic batch.
func fireUpdate(client *http.Client, baseURL string, src, dst int) error {
	const heavy = 1e9
	body, err := json.Marshal(server.V1UpdateRequest{Ops: []server.V1UpdateOp{
		{Op: "insert", Fragment: 0, From: src, To: dst, Weight: heavy},
		{Op: "delete", Fragment: 0, From: src, To: dst, Weight: heavy},
	}})
	if err != nil {
		return err
	}
	resp, err := client.Post(baseURL+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var ur server.V1UpdateResponse
	if err := json.Unmarshal(raw, &ur); err != nil {
		return fmt.Errorf("bad /v1/update body: %v", err)
	}
	if ur.Applied != 2 {
		return fmt.Errorf("/v1/update applied %d ops, want 2", ur.Applied)
	}
	return nil
}

// fire sends one query as a facade request over POST /v1/query and
// extracts the comparable answer.
func fire(client *http.Client, cfg LoadConfig, baseURL string, src, dst int) (answer, error) {
	mode := "cost"
	if cfg.Mode == "connected" {
		mode = "connectivity"
	}
	body, err := json.Marshal(server.V1Request{
		Sources: []int{src},
		Targets: []int{dst},
		Mode:    mode,
		Engine:  cfg.Engine,
	})
	if err != nil {
		return answer{}, err
	}
	resp, err := client.Post(baseURL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(raw))}
	}
	var vr server.V1QueryResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		return answer{}, fmt.Errorf("bad /v1/query body: %v", err)
	}
	if len(vr.Answers) != 1 {
		return answer{}, fmt.Errorf("/v1/query returned %d answers for one pair", len(vr.Answers))
	}
	a := answer{reachable: vr.Answers[0].Reachable}
	if vr.Answers[0].Cost != nil {
		a.cost = *vr.Answers[0].Cost
		a.hasCost = true
	}
	return a, nil
}

// FetchStats pulls and decodes a running server's /stats — load
// drivers use it to discover the node count and to difference cache
// counters around a run.
func FetchStats(baseURL string) (*server.Stats, error) {
	return fetchStats(&http.Client{Timeout: requestTimeout}, baseURL)
}

// fetchMetrics scrapes GET /metrics.
func fetchMetrics(client *http.Client, baseURL string) (map[string]float64, error) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// fetchStats pulls and decodes /stats.
// legLookups is a server's legs that saved work (leg-cache hits and
// reads of an already built site table) and those that did it (cache
// misses and the reads that built a table), as tcq.RunStats counts
// them per query.
func legLookups(st *server.Stats) (hits, misses uint64) {
	return st.Cache.Hits + st.SiteTables.Reads - st.SiteTables.Builds, st.Cache.Misses + st.SiteTables.Builds
}

func fetchStats(client *http.Client, baseURL string) (*server.Stats, error) {
	resp, err := client.Get(baseURL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var st server.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	// Drain what the decoder left so the connection stays reusable
	// (the PR 8 keep-alive lesson, now enforced by tcvet draincloser).
	io.Copy(io.Discard, resp.Body)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// percentile reads the p-quantile from ascending latencies (nearest
// rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
