// Package server is the long-lived query-serving layer over a tcq
// dataset: one gate per site (the paper's one processor per fragment:
// a site runs one leg at a time, whoever asks), a bounded LRU
// leg-result cache that memoizes the expensive half of leg execution
// across queries, and an HTTP/JSON API. It turns the one-shot library
// pipeline into the serving system the ROADMAP's "heavy traffic" north
// star asks for: many concurrent queries interleave their per-site legs
// exactly the way the paper's sites would interleave independent
// subqueries.
//
// Concurrency model: reads are lock-free — every query pins the
// immutable store generation current when it starts (one atomic
// pointer load through tcq.Dataset) and runs on it to completion.
// Updates build the next generation copy-on-write off to the side
// (only the touched fragments are re-preprocessed) and swap the
// pointer, so writers never block readers and vice versa. The leg
// cache is keyed by the site a table was computed on, and a swap
// carries every untouched site over by pointer: readers of either
// generation share the tables of shared sites, and a rebuilt site can
// never hit its predecessor's. Staleness is impossible by key; the
// sweep each swap runs only frees the tables of replaced sites.
package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
	"repro/pkg/tcq"
)

// Config tunes a Server.
type Config struct {
	// CacheCapacity bounds the leg-result cache in entries; 0 disables
	// memoization.
	CacheCapacity int
	// Cluster enables multi-node scatter-gather: legs of sites the
	// coordinator assigns to peers execute remotely over its transport,
	// and /v1/update transactions fan out to every peer with a coherent
	// epoch swap. nil (the default) keeps every site local.
	Cluster *cluster.Coordinator
}

// Server is a live deployment: a dataset, its site gates and the
// leg-result cache.
type Server struct {
	ds    *tcq.Dataset
	cache *legCache
	// gates holds one capacity-1 semaphore per site: the goroutine that
	// runs a leg on this node holds its site's gate for the duration, so
	// a site is busy with one leg at a time while distinct sites run in
	// parallel. A channel rather than a mutex because waiting for a turn
	// must end when the query's context does.
	gates       []chan struct{}
	facade      *tcq.Client
	unsubscribe func()
	start       time.Time
	metrics     *serverMetrics
	cluster     *cluster.Coordinator
	history     *snapHistory

	queries    atomic.Uint64
	connected  atomic.Uint64
	pipelined  atomic.Uint64
	updates    atomic.Uint64
	errors     atomic.Uint64
	siteLegs   []atomic.Uint64
	siteBusyNS []atomic.Int64
}

// NewDataset deploys a server over a dataset — the write-capable
// facade handle. The server registers an OnApply subscriber that sweeps
// the leg cache and records the new generation, so batches applied
// through ANY holder of the dataset (the server's endpoints, a library
// caller) free replaced sites' tables and stay servable to peers.
func NewDataset(ds *tcq.Dataset, cfg Config) (*Server, error) {
	if ds == nil {
		return nil, fmt.Errorf("server: nil dataset") //tcvet:ignore typederr constructor misuse guard; fails startup, never crosses the wire
	}
	n := ds.Snapshot().Stats().Sites
	s := &Server{
		ds:         ds,
		cache:      newLegCache(cfg.CacheCapacity),
		gates:      make([]chan struct{}, n),
		start:      time.Now(),
		siteLegs:   make([]atomic.Uint64, n),
		siteBusyNS: make([]atomic.Int64, n),
		cluster:    cfg.Cluster,
		history:    newSnapHistory(epochHistoryDepth),
	}
	for i := range s.gates {
		s.gates[i] = make(chan struct{}, 1)
	}
	s.history.add(ds.Snapshot())
	s.metrics = newServerMetrics(s)
	if s.cluster != nil {
		s.cluster.Register(s.metrics.reg)
	}
	// The server is the facade's runner: every tcq query — the /v1 API,
	// or a library caller holding Facade() — executes through the
	// gated, leg-cached path below.
	facade, err := ds.Open(tcq.WithRunner(s))
	if err != nil {
		return nil, err
	}
	s.facade = facade
	// The callback runs under the writer gate, so Snapshot() is exactly
	// the generation r announces: the sweep drops the tables of the sites
	// the batch replaced, and the history retains the generation for
	// peers still gathering legs at recent epochs.
	s.unsubscribe = ds.OnApply(func(r tcq.ApplyResult) {
		snap := s.ds.Snapshot()
		s.cache.sweep(snap.Store().Sites())
		s.history.add(snap)
		s.updates.Add(1)
		s.metrics.observeApply(r)
	})
	return s, nil
}

// Facade returns the server-backed tcq client: the public facade whose
// queries run through the server's site gates and leg cache.
func (s *Server) Facade() *tcq.Client { return s.facade }

// Dataset returns the deployment's write handle (Apply, Snapshot).
func (s *Server) Dataset() *tcq.Dataset { return s.ds }

// RunPair implements tcq.Runner: it is how the facade executes one
// planned (source, target) pair on this server, against the snapshot
// the request pinned. The engine is already concrete and compatible
// with the mode (tcq.Plan resolved auto and refused cost queries on
// reachability stores or the bitset engine), so the pair maps directly
// onto the gated executor — or the store's pipelined walk for
// ModePipelined, which is vector-seeded and therefore uncacheable.
func (s *Server) RunPair(ctx context.Context, snap *tcq.Snapshot, source, target graph.NodeID, engine dsa.Engine, mode tcq.Mode) (*dsa.Result, tcq.RunStats, error) {
	start := time.Now()
	var (
		res *dsa.Result
		rs  tcq.RunStats
		err error
	)
	if mode == tcq.ModePipelined {
		res, err = snap.Store().QueryPipelinedEngineCtx(ctx, source, target, engine)
	} else {
		res, rs, err = s.runCtx(ctx, snap, source, target, engine)
	}
	if err != nil {
		s.errors.Add(1)
		return nil, tcq.RunStats{}, err
	}
	switch mode {
	case tcq.ModePipelined:
		s.pipelined.Add(1)
	case tcq.ModeCost:
		s.queries.Add(1)
	default:
		s.connected.Add(1)
	}
	s.metrics.observeQuery(engine.String(), mode, time.Since(start))
	return res, rs, nil
}

// Close detaches the server from its dataset (the OnApply subscription
// would otherwise keep the server and its cache alive and swept for the
// dataset's lifetime). The server owns no goroutine, so there is
// nothing else to stop: requests in flight finish on the snapshots they
// pinned, and the cache simply stops being swept. The dataset remains
// usable.
func (s *Server) Close() { s.unsubscribe() }

// runCtx is the cache-aware, cancellation-aware executor behind every
// non-pipelined query, running entirely on the snapshot the request
// pinned — concurrent batch applies swap the dataset underneath without
// disturbing it. It is dsa.RunLegs with the serving layer's way of
// obtaining a leg, and starts no goroutine of its own: on the goroutine
// RunLegs already runs for the leg's site, a locally owned leg is one
// executeLegLocal call; in cluster deployments a leg of a remotely
// owned site is shipped to its owner instead (scatter) — an I/O-bound
// wait here while the owner's /v1/leg handler makes the same
// executeLegLocal call — and when the owner is unreachable the
// degraded-mode fallback makes it here after all. Assembly (gather) is
// oblivious to where a leg ran.
func (s *Server) runCtx(ctx context.Context, snap *tcq.Snapshot, source, target graph.NodeID, engine dsa.Engine) (*dsa.Result, tcq.RunStats, error) {
	if !dsa.ValidEngine(engine) {
		return nil, tcq.RunStats{}, fmt.Errorf("server: %w %d", dsa.ErrUnknownEngine, int(engine))
	}
	st := snap.Store()
	start := time.Now()
	plan, err := st.NewPlan(source, target)
	if err != nil {
		return nil, tcq.RunStats{}, err
	}
	var hits, misses atomic.Int64
	var fallbackMu sync.Mutex
	var fallbackSites []int
	res, err := st.RunLegs(ctx, plan, true, func(ctx context.Context, leg dsa.Leg) (*dsa.LegResult, error) {
		var lr *dsa.LegResult
		var hit bool
		var err error
		if s.cluster == nil || s.cluster.IsLocal(leg.SiteID) {
			if lr, hit, err = s.executeLegLocal(ctx, snap, leg, engine); err == nil && s.cluster != nil {
				s.cluster.LocalLeg()
			}
		} else {
			// hit reports the OWNER's cache verdict — remote hits count
			// as hits here so the hit rate reflects work actually saved
			// cluster-wide.
			t0 := time.Now()
			var full *relation.Relation
			var stats tc.Stats
			full, stats, hit, err = s.cluster.ExecuteLeg(ctx, leg.SiteID, leg.Entry, engine.String(), snap.Epoch())
			switch {
			case err == nil:
				lr = &dsa.LegResult{Leg: leg, Rel: full, Stats: stats, Took: time.Since(t0)}
			case cluster.FallbackEligible(err):
				// Degraded mode: the owner is unreachable (down, timed
				// out, or its breaker is open), but every node builds the
				// identical store — so run the leg here, against the same
				// pinned snapshot, and answer correctly instead of failing
				// the query. Protocol errors (epoch skew, bad response)
				// are NOT eligible: falling back would mask incoherence.
				if lr, hit, err = s.executeLegLocal(ctx, snap, leg, engine); err == nil {
					s.cluster.FallbackLeg(leg.SiteID)
					fallbackMu.Lock()
					fallbackSites = append(fallbackSites, leg.SiteID)
					fallbackMu.Unlock()
				}
			}
		}
		if err != nil {
			return nil, err
		}
		if hit {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
		return lr, nil
	})
	if err != nil {
		return nil, tcq.RunStats{}, err
	}
	res.Elapsed = time.Since(start)
	return res, tcq.RunStats{CacheHits: int(hits.Load()), CacheMisses: int(misses.Load()), FallbackSites: fallbackSites}, nil
}

// executeLegLocal is the one way a leg runs on this node, whoever asks:
// a query's locally owned leg, a degraded-mode fallback for an
// unreachable owner, or a peer's /v1/leg request. It waits for the
// site's gate — giving up with ErrCanceled when ctx ends first, so a
// canceled query stops queueing for its turn — and, holding it, looks
// the table of the snapshot's site, entry set and engine up in the leg
// cache, runs the kernel on a miss, and charges the site one leg and
// the time the gate was held. The table goes out as is — the assembly
// selects the leg's exits in place, on whichever node gathers the legs
// — so remote and local traffic for a site fill and hit the same cache
// entries and obey the same one-leg-at-a-time rule. The site index may
// come off the wire, so it is checked before it indexes anything.
func (s *Server) executeLegLocal(ctx context.Context, snap *tcq.Snapshot, leg dsa.Leg, engine dsa.Engine) (*dsa.LegResult, bool, error) {
	if leg.SiteID < 0 || leg.SiteID >= len(s.gates) {
		return nil, false, fmt.Errorf("server: %w: leg site %d out of range", dsa.ErrUnknownSite, leg.SiteID)
	}
	gate := s.gates[leg.SiteID]
	select {
	case gate <- struct{}{}:
		defer func() { <-gate }()
	case <-ctx.Done():
	}
	// Also covers a gate won by a query that was canceled while it
	// waited: its leg becomes a no-op instead of occupying the site.
	if ctx.Err() != nil {
		return nil, false, fmt.Errorf("server: %w (%w)", dsa.ErrCanceled, context.Cause(ctx))
	}
	t0 := time.Now()
	key := newLegKey(snap.Store().Site(leg.SiteID), leg.Entry, engine)
	full, stats, hit := s.cache.get(key)
	if !hit {
		var err error
		if full, stats, err = snap.Store().ExecuteLegFullCtx(ctx, leg.SiteID, leg.Entry, engine); err != nil {
			return nil, false, err
		}
		s.cache.put(key, full, stats)
	}
	lr := &dsa.LegResult{Leg: leg, Rel: full, Stats: stats, Took: time.Since(t0)}
	s.siteLegs[leg.SiteID].Add(1)
	s.siteBusyNS[leg.SiteID].Add(int64(lr.Took))
	return lr, hit, nil
}

// ApplyBatch applies a transactional batch of edge operations through
// the dataset: atomic validation, copy-on-write rebuild of the touched
// fragments, pointer swap, leg-cache sweep — in-flight queries keep
// answering on the snapshots they pinned.
func (s *Server) ApplyBatch(ctx context.Context, b *tcq.Batch) (tcq.ApplyResult, error) {
	res, err := s.ds.Apply(ctx, b)
	if err != nil {
		s.errors.Add(1)
		return res, err
	}
	return res, nil
}

// SiteStats is one site's serving-time work.
type SiteStats struct {
	// Legs is the number of legs this node executed on the site, for
	// its own queries (fallbacks included) and for peers.
	Legs uint64 `json:"legs"`
	// BusyNS is the cumulative wall-clock nanoseconds those legs held
	// the site's gate.
	BusyNS int64 `json:"busy_ns"`
}

// Stats is the server-wide counter snapshot served at /stats.
type Stats struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Epoch            uint64  `json:"epoch"`
	Nodes            int     `json:"nodes"`
	Sites            int     `json:"sites"`
	LooselyConnected bool    `json:"loosely_connected"`
	Problem          string  `json:"problem"`

	Queries          uint64 `json:"queries"`
	ConnectedQueries uint64 `json:"connected_queries"`
	PipelinedQueries uint64 `json:"pipelined_queries"`
	Updates          uint64 `json:"updates"`
	Errors           uint64 `json:"errors"`

	Cache CacheStats  `json:"cache"`
	Site  []SiteStats `json:"sites_work"`

	// Cluster describes this node's view of the multi-node deployment:
	// its identity, the membership and the site→node routing table.
	// Absent on single-node deployments.
	Cluster *ClusterStats `json:"cluster,omitempty"`

	// Metrics is the flattened sample snapshot of the Prometheus
	// registry (name{labels} -> value) — the same numbers GET /metrics
	// exposes, embedded so /stats consumers need no second scrape.
	Metrics map[string]float64 `json:"metrics"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	snap := s.ds.Snapshot()
	ss := snap.Stats()
	st := Stats{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Epoch:            snap.Epoch(),
		Nodes:            ss.TotalNodes,
		Sites:            ss.Sites,
		LooselyConnected: ss.LooselyConnected,
		Problem:          ss.Problem.String(),
	}
	st.Queries = s.queries.Load()
	st.ConnectedQueries = s.connected.Load()
	st.PipelinedQueries = s.pipelined.Load()
	st.Updates = s.updates.Load()
	st.Errors = s.errors.Load()
	st.Cache = s.cache.snapshot()
	st.Site = make([]SiteStats, len(s.siteLegs))
	for i := range s.siteLegs {
		st.Site[i] = SiteStats{Legs: s.siteLegs[i].Load(), BusyNS: s.siteBusyNS[i].Load()}
	}
	st.Cluster = s.clusterStats(ss.Sites)
	st.Metrics = s.metrics.reg.Snapshot()
	return st
}
