package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/dsa"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// UpdatesPoint is one mixed-workload serving measurement: a parallel
// load pass with a given fraction of write transactions interleaved.
type UpdatesPoint struct {
	// Pass labels the row: "read-only" or "mixed".
	Pass string `json:"pass"`
	// WriteRate is the configured write fraction of the pass.
	WriteRate float64 `json:"write_rate"`
	// Requests and Writes count what was actually fired.
	Requests int `json:"requests"`
	Writes   int `json:"writes"`
	// QPS is the measured throughput, P50/P95/P99 the query latency
	// percentiles (reads only — writes are tracked separately).
	QPS float64       `json:"qps"`
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	// WriteP50/WriteP99 are the write-transaction latency percentiles.
	WriteP50 time.Duration `json:"write_p50_ns"`
	WriteP99 time.Duration `json:"write_p99_ns"`
	// Errors and Mismatches count failures (both must be zero).
	Errors     int `json:"errors"`
	Mismatches int `json:"mismatches"`
}

// UpdatesResult is the whole mixed read/write experiment: the
// incremental-rebuild micro-measurement plus the serving-layer
// latency comparison with and without sustained writes.
type UpdatesResult struct {
	// Grid and Fragments describe the deployment; Procs is GOMAXPROCS
	// at run time (on a single CPU, reads and writes contend for the
	// core even though readers never block on locks, so the latency
	// ratio below is only meaningful with Procs > 1).
	Grid      string `json:"grid"`
	Fragments int    `json:"fragments"`
	Procs     int    `json:"gomaxprocs"`

	// FullBuild is the from-scratch preprocessing time of the
	// deployment; IncrementalApply the time one single-fragment batch
	// takes through the copy-on-write path on the same deployment.
	FullBuild        time.Duration `json:"full_build_ns"`
	IncrementalApply time.Duration `json:"incremental_apply_ns"`
	// SitesRebuilt/SitesShared report the incremental batch's rebuild
	// scope — shared > 0 is the whole point.
	SitesRebuilt int `json:"sites_rebuilt"`
	SitesShared  int `json:"sites_shared"`

	// Points holds the read-only baseline and the mixed pass.
	Points []UpdatesPoint `json:"points"`
	// P99Ratio is mixed read p99 over read-only read p99 — the
	// non-blocking-readers acceptance metric (≤ 2 is the PR bar).
	P99Ratio float64 `json:"p99_ratio"`
}

// Format renders the experiment as a table.
func (r *UpdatesResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Batched updates on a %s grid, %d fragments, GOMAXPROCS %d (copy-on-write swap, non-blocking readers)\n",
		r.Grid, r.Fragments, r.Procs)
	fmt.Fprintf(&sb, "preprocessing: full build %v; incremental single-fragment batch %v (%d site(s) rebuilt, %d shared)\n",
		r.FullBuild.Round(time.Millisecond), r.IncrementalApply.Round(time.Millisecond),
		r.SitesRebuilt, r.SitesShared)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "pass\twrite rate\treq\twrites\tQPS\tread p50\tread p95\tread p99\twrite p50\twrite p99\terrors")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%d\t%d\t%.1f\t%v\t%v\t%v\t%v\t%v\t%d\n",
			p.Pass, 100*p.WriteRate, p.Requests, p.Writes, p.QPS,
			p.P50.Round(time.Microsecond), p.P95.Round(time.Microsecond), p.P99.Round(time.Microsecond),
			p.WriteP50.Round(time.Microsecond), p.WriteP99.Round(time.Microsecond),
			p.Errors+p.Mismatches)
	}
	tw.Flush()
	fmt.Fprintf(&sb, "read p99 under sustained fragment-local writes / read-only baseline: %.2fx (acceptance bar: <= 2x)\n", r.P99Ratio)
	return sb.String()
}

// Updates measures the write path end to end: (1) the incremental
// copy-on-write Apply against a from-scratch Build on the same
// deployment — single-fragment updates must no longer trigger
// whole-store preprocessing — and (2) read latency with and without a
// sustained write mix through the live HTTP server, demonstrating that
// snapshot-pinned readers do not block on writers.
func Updates(queries int, seed int64) (*UpdatesResult, error) {
	const (
		w, h      = 32, 32
		fragments = 4
		parallel  = 8
		writeRate = 0.15
	)
	if queries <= 0 {
		queries = 150
	}
	res := &UpdatesResult{Grid: fmt.Sprintf("%dx%d", w, h), Fragments: fragments, Procs: runtime.GOMAXPROCS(0)}

	g, err := gen.Grid(gen.GridConfig{Width: w, Height: h, DiagonalProb: 0.1, Seed: seed})
	if err != nil {
		return nil, err
	}
	fr, err := linear.Fragment(g, linear.Options{NumFragments: fragments})
	if err != nil {
		return nil, err
	}

	// 1. Incremental vs full preprocessing on the same deployment.
	t0 := time.Now()
	st, err := dsa.Build(fr.Fragmentation, dsa.Options{})
	if err != nil {
		return nil, err
	}
	res.FullBuild = time.Since(t0)
	// One heavy in-fragment edge: answer-invariant, single fragment
	// touched.
	f0 := fr.Fragmentation.Fragment(0).Nodes()
	t0 = time.Now()
	_, stats, err := st.Apply(context.Background(), []dsa.EdgeOp{{
		Kind: dsa.OpInsert, Frag: 0,
		Edge: graph.Edge{From: f0[0], To: f0[len(f0)-1], Weight: 1e9},
	}})
	if err != nil {
		return nil, fmt.Errorf("updates: incremental apply: %v", err)
	}
	res.IncrementalApply = time.Since(t0)
	res.SitesRebuilt = len(stats.SitesRebuilt)
	res.SitesShared = stats.SitesShared

	// 2. Serving-layer latency with and without a sustained write mix.
	srv, err := server.New(st, server.Config{CacheCapacity: 4096})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A warm-up pass fills the leg cache so both measured passes see
	// comparable cache behaviour.
	if _, err := loadgen.RunLoad(loadgen.LoadConfig{
		BaseURL: ts.URL, Requests: queries, Parallel: parallel,
		Nodes: w * h, Seed: seed, ExpectReachable: true,
	}); err != nil {
		return nil, fmt.Errorf("updates warm-up: %v", err)
	}

	// Fragment-local write edges: both endpoints already belong to the
	// fragment, so each write is the single-fragment update the paper's
	// scenario implies (a country editing its own network) and stays on
	// the incremental fast path. The cross-fragment pass leaves
	// WriteEdges empty: random endpoints drag foreign nodes into
	// fragment 0 and force the full complementary recomputation — the
	// honest worst case, reported but not the acceptance metric.
	var localEdges [][3]int
	for i := 0; i < fragments; i++ {
		fn := fr.Fragmentation.Fragment(i).Nodes()
		localEdges = append(localEdges, [3]int{i, int(fn[0]), int(fn[len(fn)-1])})
	}

	for _, p := range []struct {
		pass  string
		rate  float64
		edges [][3]int
	}{
		{"read-only", 0, nil},
		{"mixed fragment-local", writeRate, localEdges},
		{"mixed cross-fragment", writeRate, nil},
	} {
		rep, err := loadgen.RunLoad(loadgen.LoadConfig{
			BaseURL:         ts.URL,
			Requests:        queries,
			Parallel:        parallel,
			Nodes:           w * h,
			Seed:            seed,
			ExpectReachable: true,
			WriteRate:       p.rate,
			WriteEdges:      p.edges,
		})
		if err != nil {
			return nil, fmt.Errorf("updates %s: %v", p.pass, err)
		}
		res.Points = append(res.Points, UpdatesPoint{
			Pass:       p.pass,
			WriteRate:  p.rate,
			Requests:   rep.Requests,
			Writes:     rep.Writes,
			QPS:        rep.QPS,
			P50:        rep.P50,
			P95:        rep.P95,
			P99:        rep.P99,
			WriteP50:   rep.WriteP50,
			WriteP99:   rep.WriteP99,
			Errors:     rep.Errors,
			Mismatches: rep.Mismatches,
		})
	}
	if base := res.Points[0].P99; base > 0 {
		res.P99Ratio = float64(res.Points[1].P99) / float64(base)
	}
	return res, nil
}
