package bench

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/dsa"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// ServingPoint is one row of the serving experiment: a load-generator
// pass against a live server, cold (empty leg cache) or warm (the same
// workload replayed).
type ServingPoint struct {
	// Engine is the per-request engine.
	Engine string
	// Pass labels the row: "cold" or "warm".
	Pass string
	// Requests and Parallel describe the load.
	Requests, Parallel int
	// QPS is the measured throughput, P50/P95/P99 the latency
	// percentiles.
	QPS           float64
	P50, P95, P99 time.Duration
	// HitRate is the leg-cache hit rate of the pass.
	HitRate float64
	// Errors and Mismatches count failures (both must be zero).
	Errors, Mismatches int
}

// ServingResult is the whole serving experiment.
type ServingResult struct {
	// Grid and Fragments describe the deployment.
	Grid      string
	Fragments int
	Points    []ServingPoint
}

// Format renders the experiment as a table.
func (r *ServingResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Concurrent serving on a %s grid, %d fragments (leg-result cache cold vs warm)\n",
		r.Grid, r.Fragments)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tpass\treq\tworkers\tQPS\tp50\tp95\tp99\thit rate\terrors")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.1f\t%v\t%v\t%v\t%.1f%%\t%d\n",
			p.Engine, p.Pass, p.Requests, p.Parallel, p.QPS,
			p.P50.Round(time.Microsecond), p.P95.Round(time.Microsecond),
			p.P99.Round(time.Microsecond), 100*p.HitRate, p.Errors+p.Mismatches)
	}
	tw.Flush()
	return sb.String()
}

// Serving measures the query-serving layer the way the load generator
// does in CI, but in-process: deploy a grid store behind the HTTP
// server, fire a parallel random workload with a cold leg cache, then
// replay the identical workload warm. The warm pass quantifies what
// cross-query memoization of per-site searches buys — the serving-layer
// analogue of the paper's amortization argument for precomputed
// complementary information.
func Serving(queries int, seed int64) (*ServingResult, error) {
	const (
		w, h      = 32, 32
		fragments = 4
		parallel  = 8
	)
	if queries <= 0 {
		queries = 50
	}
	res := &ServingResult{Grid: fmt.Sprintf("%dx%d", w, h), Fragments: fragments}
	for _, engName := range []string{"dijkstra", "seminaive"} {
		g, err := gen.Grid(gen.GridConfig{Width: w, Height: h, DiagonalProb: 0.1, Seed: seed})
		if err != nil {
			return nil, err
		}
		fr, err := linear.Fragment(g, linear.Options{NumFragments: fragments})
		if err != nil {
			return nil, err
		}
		st, err := dsa.Build(fr.Fragmentation, dsa.Options{})
		if err != nil {
			return nil, err
		}
		srv, err := server.New(st, server.Config{CacheCapacity: 4096})
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		for _, pass := range []string{"cold", "warm"} {
			rep, err := loadgen.RunLoad(loadgen.LoadConfig{
				BaseURL:         ts.URL,
				Requests:        queries,
				Parallel:        parallel,
				Nodes:           w * h,
				Engine:          engName,
				Seed:            seed,
				ExpectReachable: true,
			})
			if err != nil {
				ts.Close()
				srv.Close()
				return nil, fmt.Errorf("serving %s %s: %v", engName, pass, err)
			}
			res.Points = append(res.Points, ServingPoint{
				Engine:     engName,
				Pass:       pass,
				Requests:   rep.Requests,
				Parallel:   parallel,
				QPS:        rep.QPS,
				P50:        rep.P50,
				P95:        rep.P95,
				P99:        rep.P99,
				HitRate:    rep.HitRate,
				Errors:     rep.Errors,
				Mismatches: rep.Mismatches,
			})
		}
		ts.Close()
		srv.Close()
	}
	return res, nil
}
