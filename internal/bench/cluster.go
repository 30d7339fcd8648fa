package bench

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/pkg/tcq"
)

// ClusterPoint is one row of the cluster experiment: the same load
// pass against a 1-node or a multi-node deployment, cold or warm.
type ClusterPoint struct {
	// Nodes is the deployment size (1 = the single-node baseline).
	Nodes int `json:"nodes"`
	// Pass labels the row: "cold" or "warm".
	Pass string `json:"pass"`
	// Requests and Parallel describe the load.
	Requests int `json:"requests"`
	Parallel int `json:"parallel"`
	// QPS is the measured throughput, P50/P99 latency percentiles
	// (nanoseconds in the JSON artifact, as Go renders time.Duration).
	QPS float64       `json:"qps"`
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// HitRate is the coordinator's leg-cache hit rate over the pass.
	HitRate float64 `json:"hit_rate"`
	// Errors and Mismatches count failures (both must be zero).
	Errors     int `json:"errors"`
	Mismatches int `json:"mismatches"`
}

// ClusterResult is the whole cluster experiment — the measured cost
// and benefit of sharding leg execution across real HTTP nodes versus
// running everything in one process.
type ClusterResult struct {
	// Grid and Fragments describe the deployment input.
	Grid      string `json:"grid"`
	Fragments int    `json:"fragments"`
	// Engine is the per-request engine of every pass.
	Engine string         `json:"engine"`
	Points []ClusterPoint `json:"points"`
}

// Format renders the experiment as a table.
func (r *ClusterResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cluster serving on a %s grid, %d fragments (%s): 1-node baseline vs multi-node scatter-gather\n",
		r.Grid, r.Fragments, r.Engine)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "nodes\tpass\treq\tworkers\tQPS\tp50\tp99\thit rate\terrors")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%.1f\t%v\t%v\t%.1f%%\t%d\n",
			p.Nodes, p.Pass, p.Requests, p.Parallel, p.QPS,
			p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond),
			100*p.HitRate, p.Errors+p.Mismatches)
	}
	tw.Flush()
	sb.WriteString("Multi-node pays one HTTP round trip per remote leg cold; warm replays absorb it in the owners' leg caches.\n")
	return sb.String()
}

// Cluster measures what multi-node deployment costs and buys: the same
// random workload against a 1-node deployment and a 3-node in-process
// cluster wired over real loopback HTTP, cold and warm. Cold passes
// price the scatter-gather round trips; warm passes show the cache
// working set concentrating on the owners (the paper's locality
// argument for placing each fragment's work at one site).
func Cluster(queries int, seed int64) (*ClusterResult, error) {
	const (
		w, h      = 32, 32
		fragments = 8
		parallel  = 8
		engine    = "dijkstra"
	)
	if queries <= 0 {
		queries = 50
	}
	res := &ClusterResult{Grid: fmt.Sprintf("%dx%d", w, h), Fragments: fragments, Engine: engine}
	for _, nodes := range []int{1, 3} {
		urls, cleanup, err := deployCluster(w, h, fragments, nodes, seed)
		if err != nil {
			return nil, err
		}
		for _, pass := range []string{"cold", "warm"} {
			rep, err := loadgen.RunLoad(loadgen.LoadConfig{
				BaseURLs:        urls,
				Requests:        queries,
				Parallel:        parallel,
				Nodes:           w * h,
				Engine:          engine,
				Seed:            seed,
				ExpectReachable: true,
			})
			if err != nil {
				cleanup()
				return nil, fmt.Errorf("cluster %d-node %s: %v", nodes, pass, err)
			}
			res.Points = append(res.Points, ClusterPoint{
				Nodes:      nodes,
				Pass:       pass,
				Requests:   rep.Requests,
				Parallel:   parallel,
				QPS:        rep.QPS,
				P50:        rep.P50,
				P99:        rep.P99,
				HitRate:    rep.HitRate,
				Errors:     rep.Errors,
				Mismatches: rep.Mismatches,
			})
		}
		cleanup()
	}
	return res, nil
}

// delegatingHandler lets the HTTP listeners start before the servers
// they route to exist (peer URLs feed the coordinators that build the
// servers).
type delegatingHandler struct {
	h atomic.Pointer[http.Handler]
}

func (d *delegatingHandler) set(h http.Handler) { d.h.Store(&h) }

func (d *delegatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := d.h.Load()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}

// deployCluster boots nodes identical stores behind loopback HTTP
// servers, wired into one membership (nodes == 1 deploys the plain
// single-node baseline with no coordinator).
func deployCluster(w, h, fragments, nodes int, seed int64) ([]string, func(), error) {
	handlers := make([]*delegatingHandler, nodes)
	https := make([]*httptest.Server, nodes)
	var peers []cluster.Node
	for i := 0; i < nodes; i++ {
		handlers[i] = &delegatingHandler{}
		https[i] = httptest.NewServer(handlers[i])
		peers = append(peers, cluster.Node{ID: string(rune('a' + i)), URL: https[i].URL})
	}
	var servers []*server.Server
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
		for _, ts := range https {
			ts.Close()
		}
	}
	for i := 0; i < nodes; i++ {
		g, err := gen.Grid(gen.GridConfig{Width: w, Height: h, DiagonalProb: 0.1, Seed: seed})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		fr, err := linear.Fragment(g, linear.Options{NumFragments: fragments})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		ds, err := tcq.NewDataset(fr.Fragmentation, tcq.BuildOptions{})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		cfg := server.Config{CacheCapacity: 4096}
		if nodes > 1 {
			coord, err := cluster.New(cluster.Config{NodeID: peers[i].ID, Peers: peers})
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			cfg.Cluster = coord
		}
		srv, err := server.NewDataset(ds, cfg)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		servers = append(servers, srv)
		handlers[i].set(srv.Handler())
	}
	urls := make([]string, nodes)
	for i, ts := range https {
		urls[i] = ts.URL
	}
	return urls, cleanup, nil
}
