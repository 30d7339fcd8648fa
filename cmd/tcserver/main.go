// Command tcserver is the long-lived query-serving daemon: it deploys
// a disconnection-set store once (graph + fragmentation + complementary
// information) and then answers shortest-path and reachability queries
// over HTTP/JSON, with its sites' border tables and a bounded LRU
// leg-result cache that memoizes per-site searches across queries.
//
// Usage:
//
//	tcserver -graph graph.txt -frag frags.txt -listen :8642
//	tcserver -grid 64x64 -fragments 8 -listen 127.0.0.1:8642
//	tcserver -grid 32x32 -fragments 4 -cache 4096
//	tcserver -grid 64x64 -fragments 8 -pprof   # /debug/pprof/ exposed
//	tcserver -grid 64x64 -fragments 8 -node-id a \
//	        -peers a=http://h1:8642,b=http://h2:8642,c=http://h3:8642
//
// With -node-id/-peers the node joins a static multi-node cluster: a
// consistent-hash ring assigns every site an owning node, queries
// scatter-gather their legs across owners over POST /v1/leg (the
// internal peer endpoint), and /v1/update transactions fan out to all
// peers with a coherent epoch swap (see the README's cluster section).
//
// Endpoints: POST /v1/query, POST /v1/batch and POST /v1/update (the
// versioned facade API: source/target sets, modes, auto-planned
// engines, transactional op batches, typed error codes), plus GET
// /stats, /healthz and /readyz (see the README's serving section for
// schemas), and GET /metrics, the Prometheus text exposition —
// per-engine latency histograms, leg-cache and epoch-churn counters
// (see the README's observability section for the catalog). Updates
// are copy-on-write and never block in-flight queries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fragment"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/pkg/tcq"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "graph file (with -frag; alternative to -grid)")
		fragFile  = flag.String("frag", "", "fragmentation file (with -graph)")
		grid      = flag.String("grid", "", "generate a WxH grid graph in-process, e.g. 64x64")
		frags     = flag.Int("fragments", 8, "fragment count for the generated grid (linear sweep)")
		diag      = flag.Float64("diag", 0.1, "diagonal shortcut probability for the generated grid")
		seed      = flag.Int64("seed", 1, "seed for the generated grid")
		listen    = flag.String("listen", ":8642", "listen address")
		problem   = flag.String("problem", "shortestpath", "precomputed problem: shortestpath or reachability")
		cacheCap  = flag.Int("cache", 1024, "leg-result cache capacity in entries (0 disables)")
		maxChains = flag.Int("max-chains", 0, "bound chain enumeration (0 = unlimited)")
		storeDir  = flag.String("store", "", "durable store directory: applies are journaled and checkpointed; recovered on boot when it already holds state")
		tcsFile   = flag.String("tcs", "", "cold-start from this TCSF snapshot file (alternative to text input or generation)")
		ckptEvery = flag.Int("checkpoint-every", 0, "journaled batches between automatic checkpoints (0 = store default, negative = never)")
		withPprof = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ for live profiling")
		nodeID    = flag.String("node-id", "", "this node's ID in a multi-node cluster (requires -peers)")
		peers     = flag.String("peers", "", "static cluster membership as id=url pairs, e.g. a=http://h1:8642,b=http://h2:8642 (this node included)")
		rpcTO     = flag.Duration("rpc-timeout", 5*time.Second, "per-RPC deadline for cluster peer calls")

		brkThreshold = flag.Int("breaker-threshold", 5, "consecutive transport failures before a peer's circuit breaker opens")
		brkInterval  = flag.Duration("breaker-open-interval", 2*time.Second, "how long an open breaker refuses a peer before probing it again")
		legRetries   = flag.Int("leg-retries", 2, "extra attempts for an idempotent leg read after a transport failure (0 disables retries)")
		retryBackoff = flag.Duration("retry-backoff", 25*time.Millisecond, "base backoff between leg retries (doubles per retry, full jitter)")
		faultScript  = flag.String("fault-script", "", "deterministic per-peer fault injection, e.g. 'b:down*8,ok;c:timeout*2,ok*' (testing only)")
	)
	flag.Parse()

	prob, err := tcq.ParseProblem(*problem)
	if err != nil {
		fatal(err)
	}
	// Three boot paths, in priority order: recover a durable store
	// directory; cold-start from a TCSF snapshot file; parse text (or
	// generate) and run the preprocessing build. The first is the
	// restart path — it alone reaches the exact epoch of every
	// acknowledged update. The latter two seed -store when it is named
	// but empty, so the next restart takes the first path.
	var ds *tcq.Dataset
	bootStart := time.Now()
	switch {
	case *storeDir != "" && tcq.HasStore(*storeDir):
		var info tcq.PersistInfo
		ds, info, err = tcq.OpenStore(*storeDir, tcq.PersistOptions{CheckpointEvery: *ckptEvery})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tcserver: recovered %s in %v: checkpoint epoch %d + %d journal records -> epoch %d (torn tail: %v)\n",
			*storeDir, time.Since(bootStart).Round(time.Millisecond),
			info.CheckpointEpoch, info.ReplayedRecords, info.Epoch, info.TornTail)
	case *tcsFile != "":
		ds, err = tcq.LoadSnapshot(*tcsFile)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tcserver: loaded snapshot %s in %v\n",
			*tcsFile, time.Since(bootStart).Round(time.Millisecond))
		if ds, err = attachStore(ds, *storeDir, *ckptEvery); err != nil {
			fatal(err)
		}
	default:
		fr, err := loadFragmentation(*graphFile, *fragFile, *grid, *frags, *diag, *seed)
		if err != nil {
			fatal(err)
		}
		ds, err = tcq.NewDataset(fr, tcq.BuildOptions{MaxChains: *maxChains, Problem: prob})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tcserver: store built in %v\n",
			time.Since(bootStart).Round(time.Millisecond))
		if ds, err = attachStore(ds, *storeDir, *ckptEvery); err != nil {
			fatal(err)
		}
	}
	defer ds.Close()
	snap := ds.Snapshot()
	prep := snap.Preprocessing()
	fmt.Fprintf(os.Stderr, "tcserver: deployed epoch %d: %d sites, %d disconnection sets, %d complementary facts, loosely connected: %v\n",
		snap.Epoch(), snap.Stats().Sites,
		prep.DisconnectionSets, prep.PairsStored, snap.Stats().LooselyConnected)

	coord, err := buildCluster(clusterFlags{
		nodeID:       *nodeID,
		peers:        *peers,
		rpcTimeout:   *rpcTO,
		brkThreshold: *brkThreshold,
		brkInterval:  *brkInterval,
		legRetries:   *legRetries,
		retryBackoff: *retryBackoff,
		faultScript:  *faultScript,
	}, snap.Stats().Sites)
	if err != nil {
		fatal(err)
	}

	srv, err := server.NewDataset(ds, server.Config{
		CacheCapacity: *cacheCap,
		Cluster:       coord,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	handler := srv.Handler()
	if *withPprof {
		// The API handler owns every route except the profiler's; a
		// fresh mux composes them so -pprof stays a pure opt-in (the
		// import is gated here, not in the server package).
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Fprintln(os.Stderr, "tcserver: pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *listen, Handler: handler}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "tcserver: serving on %s (cache %d)\n", *listen, *cacheCap)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "tcserver: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		// A clean shutdown checkpoints the current generation so the
		// next boot is replay-free; a crash falls back to checkpoint +
		// journal replay.
		if ds.Persistent() {
			if err := ds.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "tcserver: shutdown checkpoint:", err)
			}
		}
	}
}

// attachStore makes a freshly built or snapshot-loaded dataset
// durable: it seeds dir with a checkpoint of the dataset's current
// generation and reopens through the store, so every subsequent apply
// is journaled before it is acknowledged. No-op when dir is empty.
func attachStore(ds *tcq.Dataset, dir string, ckptEvery int) (*tcq.Dataset, error) {
	if dir == "" {
		return ds, nil
	}
	if err := tcq.InitStore(dir, ds.Snapshot()); err != nil {
		return nil, err
	}
	d, info, err := tcq.OpenStore(dir, tcq.PersistOptions{CheckpointEvery: ckptEvery})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "tcserver: store directory %s initialised at epoch %d\n", dir, info.Epoch)
	return d, nil
}

// loadFragmentation builds the deployment input either from files or
// from an in-process grid generation (the CI smoke path: no
// intermediate files needed).
func loadFragmentation(graphFile, fragFile, grid string, frags int, diag float64, seed int64) (*fragment.Fragmentation, error) {
	switch {
	case grid != "":
		var w, h int
		if _, err := fmt.Sscanf(strings.ToLower(grid), "%dx%d", &w, &h); err != nil {
			return nil, fmt.Errorf("bad -grid %q (want WxH, e.g. 64x64)", grid)
		}
		g, err := gen.Grid(gen.GridConfig{Width: w, Height: h, DiagonalProb: diag, Seed: seed})
		if err != nil {
			return nil, err
		}
		res, err := linear.Fragment(g, linear.Options{NumFragments: frags})
		if err != nil {
			return nil, err
		}
		return res.Fragmentation, nil
	case graphFile != "" && fragFile != "":
		gf, err := os.Open(graphFile)
		if err != nil {
			return nil, err
		}
		g, err := graph.Read(gf)
		gf.Close()
		if err != nil {
			return nil, err
		}
		ff, err := os.Open(fragFile)
		if err != nil {
			return nil, err
		}
		fr, err := fragment.Read(g, ff)
		ff.Close()
		if err != nil {
			return nil, err
		}
		return fr, nil
	default:
		return nil, fmt.Errorf("need either -graph and -frag, or -grid")
	}
}

// clusterFlags carries the resolved -node-id/-peers flag group plus
// the resilience knobs (breaker, retry, fault injection).
type clusterFlags struct {
	nodeID       string
	peers        string
	rpcTimeout   time.Duration
	brkThreshold int
	brkInterval  time.Duration
	legRetries   int
	retryBackoff time.Duration
	faultScript  string
}

// buildCluster resolves the -node-id/-peers flags into a coordinator
// (nil when the flags are unset: a single-node deployment) and logs
// the site placement the consistent-hash ring derived — identical on
// every member, so the log lines agree across the fleet. A non-empty
// -fault-script wraps each scripted peer's transport in a
// deterministic fault injector (the chaos CI hook).
func buildCluster(cf clusterFlags, sites int) (*cluster.Coordinator, error) {
	if cf.peers == "" && cf.nodeID == "" {
		return nil, nil
	}
	if cf.peers == "" || cf.nodeID == "" {
		return nil, fmt.Errorf("cluster mode needs both -node-id and -peers")
	}
	nodes, err := cluster.ParsePeers(cf.peers)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		NodeID:  cf.nodeID,
		Peers:   nodes,
		Timeout: cf.rpcTimeout,
		Breaker: cluster.BreakerConfig{
			FailureThreshold: cf.brkThreshold,
			OpenInterval:     cf.brkInterval,
		},
		Retry: cluster.RetryConfig{
			Attempts:    cf.legRetries + 1,
			BaseBackoff: cf.retryBackoff,
		},
	}
	if cf.faultScript != "" {
		script, err := cluster.ParseFaultScript(cf.faultScript)
		if err != nil {
			return nil, fmt.Errorf("-fault-script: %w", err)
		}
		cfg.NewTransport = func(n cluster.Node) cluster.Transport {
			return cluster.NewFaultTransport(cluster.NewHTTPTransport(n, cf.rpcTimeout), n.ID, script)
		}
		fmt.Fprintf(os.Stderr, "tcserver: fault injection active: %s\n", cf.faultScript)
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	placement := coord.Placement(sites)
	fmt.Fprintf(os.Stderr, "tcserver: cluster node %q of %d nodes; site placement:\n", cf.nodeID, len(nodes))
	for _, n := range coord.Nodes() {
		marker := ""
		if n.ID == cf.nodeID {
			marker = " (this node)"
		}
		fmt.Fprintf(os.Stderr, "tcserver:   %s -> sites %v%s\n", n.ID, placement[n.ID], marker)
	}
	return coord, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcserver:", err)
	os.Exit(1)
}
