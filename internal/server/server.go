// Package server is the long-lived query-serving layer over a tcq
// dataset: the sites' border tables, from which every leg they can
// answer gathers its cells (dsa.Store.BorderBlockCtx), a bounded LRU
// leg-result cache for the rest of the one-source legs — from a source
// off the border on an asymmetric site or to a target off it too — and
// an HTTP/JSON API.
// A same-fragment leg is answered by one search to its target on a
// source's first miss, which leaves a table-less mark in the cache;
// the source's second miss caches its whole row, which answers every
// later leg from it.
// A query runs the legs of the sites this node owns on its own
// goroutine; only peers' legs fan out (dsa.Store.RunLegs). Legs of
// concurrent queries run on one site at the same time, and two misses
// on one cache key may both search: they compute the same table, and
// the cache keeps one entry. The paper's one processor per fragment is
// reproduced by the simulator (internal/sim), not modelled here.
//
// Concurrency model: reads are lock-free — every query pins the
// immutable store generation current when it starts (one atomic
// pointer load through tcq.Dataset) and runs on it to completion.
// Updates build the next generation copy-on-write off to the side
// (only the touched fragments are re-preprocessed) and swap the
// pointer, so writers never block readers and vice versa. Border
// tables live on their site and the leg cache is keyed by the site a
// table was computed on, and a swap carries every untouched site over
// by pointer: readers of either generation share the tables of shared
// sites, and a rebuilt site starts with none of its predecessor's.
// Staleness is impossible by construction; the sweep each swap runs
// only frees the cached tables of replaced sites.
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
	"repro/internal/tc"
	"repro/pkg/tcq"
)

// Config tunes a Server.
type Config struct {
	// CacheCapacity bounds the leg-result cache in entries; 0 disables
	// memoization. Every entry is one source row, so the cache holds at
	// most CacheCapacity × (largest site × 8 B + overhead), on a single
	// node and on a cluster member alike.
	CacheCapacity int
	// Cluster enables multi-node scatter-gather: legs of sites the
	// coordinator assigns to peers execute remotely over its transport,
	// and /v1/update transactions fan out to every peer with a coherent
	// epoch swap. nil (the default) keeps every site local.
	Cluster *cluster.Coordinator
}

// Server is a live deployment: a dataset, the leg-result cache and
// per-site leg accounting.
type Server struct {
	ds          *tcq.Dataset
	cache       *legCache
	facade      *tcq.Client
	unsubscribe func()
	start       time.Time
	metrics     *serverMetrics
	cluster     *cluster.Coordinator
	history     *snapHistory

	queries    atomic.Uint64
	connected  atomic.Uint64
	pipelined  atomic.Uint64
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
		start:      time.Now(),
		siteLegs:   make([]atomic.Uint64, n),
		siteBusyNS: make([]atomic.Int64, n),
		cluster:    cfg.Cluster,
		history:    newSnapHistory(epochHistoryDepth),
	}
	s.history.add(ds.Snapshot())
	s.metrics = newServerMetrics(s)
	if s.cluster != nil {
		s.cluster.Register(s.metrics.reg)
	}
	// The server is the facade's runner: every tcq query — the /v1 API,
	// or a library caller holding Facade() — executes through the
	// leg-cached path below.
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
		s.metrics.observeApply(r)
	})
	return s, nil
}

// Facade returns the server-backed tcq client: the public facade whose
// queries run through the server's site tables and leg cache.
func (s *Server) Facade() *tcq.Client { return s.facade }

// Dataset returns the deployment's write handle (Apply, Snapshot).
func (s *Server) Dataset() *tcq.Dataset { return s.ds }

// RunPair implements tcq.Runner: it is how the facade executes one
// planned (source, target) pair on this server, against the snapshot
// the request pinned. The engine is already concrete and compatible
// with the mode (tcq.Plan resolved auto and refused cost queries on
// reachability stores or the bitset engine), so the pair maps directly
// onto the leg-cached executor — or the store's pipelined walk for
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
// obtaining a leg, and starts no goroutine of its own. The sites this
// node owns run on the caller's goroutine, each leg one
// executeLegLocal call. In cluster deployments RunLegs gives each
// remotely owned site a goroutine, so a query's peers work at once (a
// lone one runs last on the caller), and their legs are shipped to
// their owners instead (scatter) — an I/O-bound
// wait here while the owner's /v1/leg handler makes that call and
// ships the facts of the leg's exits, which become its block here in
// one step. When the owner is unreachable the degraded-mode fallback
// makes the executeLegLocal call here after all. Assembly (gather) is
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
	res, err := st.RunLegs(ctx, plan, func(ctx context.Context, leg dsa.Leg) (*dsa.LegResult, error) {
		var lr *dsa.LegResult
		var hit bool
		var err error
		if s.owns(leg.SiteID) {
			if lr, hit, err = s.executeLegLocal(ctx, snap, leg, engine); err == nil && s.cluster != nil {
				s.cluster.LocalLeg()
			}
		} else {
			// hit reports the OWNER's cache verdict — remote hits count
			// as hits here so the hit rate reflects work actually saved
			// cluster-wide.
			t0 := time.Now()
			lr = &dsa.LegResult{Leg: leg}
			lr.Block, lr.Stats, hit, err = s.cluster.ExecuteLeg(ctx, leg, engine.String(), snap.Epoch())
			switch {
			case err == nil:
				lr.Took = time.Since(t0)
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
	}, s.owns)
	if err != nil {
		return nil, tcq.RunStats{}, err
	}
	res.Elapsed = time.Since(start)
	return res, tcq.RunStats{CacheHits: int(hits.Load()), CacheMisses: int(misses.Load()), FallbackSites: fallbackSites}, nil
}

// owns reports that this node runs siteID's legs, as it runs every
// site's without a cluster.
func (s *Server) owns(siteID int) bool { return s.cluster == nil || s.cluster.IsLocal(siteID) }

// executeLegLocal runs a leg on this node on its site (onSite), whoever
// asks: a locally owned leg, a degraded-mode fallback or a peer's
// /v1/leg, whose leg without exits takes every node of its site as one.
// It is the one place the serving layer's leg policy is written, and
// it tries, in order:
//   - the snapshot site's border table, when it can answer the leg
//     (dsa.Store.BorderBlockCtx): a hit, unless this read built it;
//   - for one source, the leg cache's row (legCache.get): a hit;
//   - for a same-fragment leg — one source to its target, off the
//     border — whose key the cache does not hold, one search to the
//     target (dsa.Store.GoalBlockCtx): no table, and a table-less
//     entry marks the key, so the key's next miss takes the last step;
//   - the kernel's table (dsa.Store.ExecuteLegTableCtx), put in the
//     cache for one source.
//
// A table's exits are selected after the leg is charged to its site.
func (s *Server) executeLegLocal(ctx context.Context, snap *tcq.Snapshot, leg dsa.Leg, engine dsa.Engine) (*dsa.LegResult, bool, error) {
	var lr dsa.LegResult
	var table *tc.CostMatrix
	var hit bool
	took, err := s.onSite(ctx, leg.SiteID, func() error {
		st := snap.Store()
		if len(leg.Exit) == 0 {
			leg.Exit = st.Site(leg.SiteID).Nodes()
		}
		block, built, err := st.BorderBlockCtx(ctx, leg, engine)
		if err != nil {
			return err
		}
		if block != nil {
			s.metrics.tableReads.Inc()
			if built {
				s.metrics.tableBuilds[engine].Inc()
			}
			lr.Block, hit = block, !built
			return nil
		}
		key, one := legKey{site: st.Site(leg.SiteID), engine: engine}, len(leg.Entry) == 1
		if one {
			key.source = leg.Entry[0]
			var held bool
			if table, lr.Stats, held = s.cache.get(key); table != nil {
				hit = true
				return nil
			}
			if !held {
				if lr.Block, lr.Stats, err = st.GoalBlockCtx(ctx, leg, engine); err != nil || lr.Block != nil {
					if lr.Block != nil {
						s.cache.mark(key)
					}
					return err
				}
			}
		}
		if table, lr.Stats, err = st.ExecuteLegTableCtx(ctx, leg, engine); err != nil {
			return err
		}
		if one {
			s.cache.put(key, table, lr.Stats)
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	if table != nil {
		lr.Block = dsa.SelectExits(table, leg)
	}
	lr.Leg, lr.Took = leg, took
	return &lr, hit, nil
}

// onSite is how executeLegLocal runs a leg on its site: it checks the
// site index, which may come off the wire, and the query's context — a
// canceled query's leg fails with ErrCanceled instead of running — then
// runs fn and charges the site one leg and fn's wall time, which it
// returns. Legs of concurrent queries on one site do not wait for each
// other.
func (s *Server) onSite(ctx context.Context, siteID int, fn func() error) (time.Duration, error) {
	if siteID < 0 || siteID >= len(s.siteLegs) {
		return 0, fmt.Errorf("server: %w: leg site %d out of range", dsa.ErrUnknownSite, siteID)
	}
	if ctx.Err() != nil {
		return 0, fmt.Errorf("server: %w (%w)", dsa.ErrCanceled, context.Cause(ctx))
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	took := time.Since(t0)
	s.siteLegs[siteID].Add(1)
	s.siteBusyNS[siteID].Add(int64(took))
	return took, nil
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
	// BusyNS is the summed wall time of the legs this node ran on the
	// site, in nanoseconds; legs of concurrent queries may overlap, so
	// it can grow faster than the clock.
	BusyNS int64 `json:"busy_ns"`
}

// SiteTableStats is a server's border-table traffic: the tables its
// reads built (over every engine), the legs gathered from them (the
// building reads included), and what the current snapshot's built
// tables hold (dsa.Site.TableBytes).
type SiteTableStats struct {
	Builds uint64 `json:"builds"`
	Reads  uint64 `json:"reads"`
	Bytes  int64  `json:"bytes"`
}

// siteTables snapshots the border-table counters.
func (s *Server) siteTables() SiteTableStats {
	st := SiteTableStats{Reads: s.metrics.tableReads.Value()}
	for _, c := range s.metrics.tableBuilds {
		st.Builds += c.Value()
	}
	for _, site := range s.ds.Snapshot().Store().Sites() {
		st.Bytes += site.TableBytes()
	}
	return st
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

	Cache      CacheStats     `json:"cache"`
	SiteTables SiteTableStats `json:"site_tables"`
	Site       []SiteStats    `json:"sites_work"`

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
	st.Updates = s.metrics.epochSwaps.Value()
	st.Errors = s.errors.Load()
	st.Cache = s.cache.snapshot()
	st.SiteTables = s.siteTables()
	st.Site = make([]SiteStats, len(s.siteLegs))
	for i := range s.siteLegs {
		st.Site[i] = SiteStats{Legs: s.siteLegs[i].Load(), BusyNS: s.siteBusyNS[i].Load()}
	}
	st.Cluster = s.clusterStats(ss.Sites)
	st.Metrics = s.metrics.reg.Snapshot()
	return st
}
