// Package tcq is the public query facade of the repository: the single
// programmatic entry point for transitive-closure queries over
// fragmented graphs with the disconnection set approach (Houtsma, Apers
// & Ceri, ICDE'93).
//
// The packages below it stay what they are — internal/dsa the
// disconnection-set machinery, internal/tc the evaluation kernels,
// internal/server the HTTP serving layer — but callers outside those
// layers go through tcq: build a deployment (Build/BuildStore + Open),
// describe what they want as a Request (source/target sets, a mode, an
// optional engine override, a result limit), and let the planner pick
// the evaluation strategy per query:
//
//	client, err := tcq.Build(fr, tcq.BuildOptions{})
//	res, err := client.Query(ctx, tcq.Request{
//	        Sources: []int{3}, Targets: []int{97}, Mode: tcq.ModeCost,
//	})
//	// res.Explain says which engine answered and why.
//
// The write side mirrors the read side: a Dataset owns the deployment
// across update generations, a Batch of typed Insert/Delete ops is
// validated and applied atomically by Dataset.Apply (producing a new
// epoch, re-preprocessing only the fragments the batch touched), and
// readers pin immutable copy-on-write Snapshots — queries never block
// on writers and never observe a half-applied batch:
//
//	ds := client.Dataset()
//	var b tcq.Batch
//	b.Insert(0, 3, 97, 1.5).Delete(0, 3, 42, 2)
//	res, err := ds.Apply(ctx, &b)   // res.Epoch, res.Stats.SitesShared
//
// Everything is context-aware: cancellation propagates through the
// per-site execution down into the kernels, which observe ctx between
// fixpoint rounds and propagation levels, and surfaces as ErrCanceled.
// All errors wrap the package's typed sentinels (errors.Is-able).
package tcq

import (
	"context"
	"fmt"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/graph"
)

// Problem selects the precomputed path problem of a deployment; it is
// the dsa problem re-exported so facade callers need not import
// internal packages.
type Problem = dsa.Problem

// Re-exported problem values (see dsa.Problem).
const (
	// ProblemShortestPath precomputes global minimum costs between
	// disconnection-set nodes; such stores answer every mode.
	ProblemShortestPath = dsa.ProblemShortestPath
	// ProblemReachability precomputes only connectivity; such stores
	// answer ModeConnectivity and refuse the cost modes.
	ProblemReachability = dsa.ProblemReachability
)

// ParseProblem resolves a problem name, case-insensitively; unknown
// names return an error wrapping ErrUnknownProblem.
func ParseProblem(name string) (Problem, error) { return dsa.ParseProblem(name) }

// Aliases for the per-query bookkeeping types the facade surfaces, so
// callers can name them without importing internal packages.
type (
	// PreprocessStats reports the complementary-information build cost.
	PreprocessStats = dsa.PreprocessStats
	// SiteWork summarises one site's contribution to an answer.
	SiteWork = dsa.SiteWork
	// Route is a fully materialised shortest path (node sequence +
	// cost), as reconstructed by QueryPath.
	Route = dsa.Route
)

// BuildOptions configures BuildStore/Build.
type BuildOptions struct {
	// MaxChains bounds chain enumeration for cyclic fragmentation
	// graphs (0 = unlimited).
	MaxChains int
	// Problem selects the precomputed path problem (default
	// ProblemShortestPath).
	Problem Problem
}

// BuildStore precomputes a disconnection-set deployment from a
// fragmentation: one site per fragment, complementary information per
// disconnection set. The returned store is the handle Open and
// OpenDataset accept (the serving layer deploys over the resulting
// Dataset); callers that only query can use Build and never touch the
// store.
func BuildStore(fr *fragment.Fragmentation, opt BuildOptions) (*dsa.Store, error) {
	return dsa.Build(fr, dsa.Options{MaxChains: opt.MaxChains, Problem: opt.Problem})
}

// RunStats is the per-pair execution metadata a Runner reports beside
// the raw result — serving-layer cache behaviour, zero for direct
// store execution.
type RunStats struct {
	// CacheHits and CacheMisses count leg-cache lookups of this pair.
	CacheHits, CacheMisses int
	// FallbackSites lists remote-owned sites whose legs the runner
	// executed locally in degraded mode because their owner was
	// unreachable (down, timed out, or circuit-breaker open). Empty on
	// healthy clusters and single-node runners. Queries surface the
	// union per placement entry as SitePlacement.Fallback.
	FallbackSites []int
}

// Runner executes one planned (source, target) pair query against a
// pinned snapshot. The default runner executes directly on the
// snapshot's store with per-site goroutines; the serving layer
// (internal/server) plugs in its executor — the same per-site
// goroutines, each leg behind its site's gate and the leg cache —
// through WithRunner so HTTP traffic and library callers share one
// facade.
// The engine is always concrete (the planner has resolved EngineAuto
// before any RunPair call), and the snapshot is the generation the
// whole request pinned — runners must execute on it, not on whatever
// generation is current, so multi-pair requests stay self-consistent
// under concurrent updates.
type Runner interface {
	RunPair(ctx context.Context, snap *Snapshot, source, target graph.NodeID, engine dsa.Engine, mode Mode) (*dsa.Result, RunStats, error)
}

// Option configures Open/Build.
type Option func(*options)

type options struct {
	runner Runner
}

// WithRunner replaces the default direct-on-store executor; the
// serving layer uses it to route facade queries through its site
// gates and leg cache.
func WithRunner(r Runner) Option {
	return func(o *options) { o.runner = r }
}

// Client is an open facade over one deployment. It is safe for
// concurrent use without any reader locking: every query pins the
// dataset generation current when it starts (an atomic pointer load)
// and runs on that immutable snapshot to completion, so in-flight
// queries never observe a half-applied update and never block on
// writers.
type Client struct {
	ds     *Dataset
	runner Runner
}

// Open wraps a built store in a facade client (creating a dataset
// around the store). To share one dataset between a client and other
// layers — or between several clients — build the Dataset first and
// use Dataset.Open.
func Open(store *dsa.Store, opts ...Option) (*Client, error) {
	ds, err := OpenDataset(store)
	if err != nil {
		return nil, err
	}
	return ds.Open(opts...)
}

// Build is BuildStore followed by Open — the one-call path from a
// fragmentation to a queryable client.
func Build(fr *fragment.Fragmentation, bopt BuildOptions, opts ...Option) (*Client, error) {
	st, err := BuildStore(fr, bopt)
	if err != nil {
		return nil, err
	}
	return Open(st, opts...)
}

// Close releases the client. A client holds no resources beyond the
// dataset and owns no goroutine, so there is nothing to release today;
// callers should still treat a closed client as unusable.
func (c *Client) Close() error { return nil }

// Dataset returns the mutable deployment handle behind the client —
// the write side of the facade (Apply, Snapshot, OnApply).
func (c *Client) Dataset() *Dataset { return c.ds }

// Snapshot pins the current generation: an immutable view that stays
// consistent (and fully queryable) across any number of later batches.
func (c *Client) Snapshot() *Snapshot { return c.ds.Snapshot() }

// Store exposes the current generation's store for the internal layers
// that extend the facade (the serving layer, the phe hierarchical
// planner). Treat it as read-only; mutate through Apply.
func (c *Client) Store() *dsa.Store { return c.ds.Snapshot().st }

// StoreStats returns the planner inputs of the current generation
// (recollected on every applied batch).
func (c *Client) StoreStats() StoreStats {
	return c.ds.Snapshot().stats
}

// Plan resolves the engine the planner would choose for a request
// against the client's current stats, without running anything.
func (c *Client) Plan(req Request) (Explain, error) {
	return Plan(req, c.StoreStats())
}

// Preprocessing reports the complementary-information build cost of
// the current generation.
func (c *Client) Preprocessing() PreprocessStats {
	return c.ds.Snapshot().Preprocessing()
}

// Sites returns the number of deployed sites.
func (c *Client) Sites() int { return c.StoreStats().Sites }

// Problem returns the precomputed path problem.
func (c *Client) Problem() Problem { return c.StoreStats().Problem }

// LooselyConnected reports whether the deployed fragmentation graph is
// acyclic — the precondition for single-chain plans and exact answers.
func (c *Client) LooselyConnected() bool { return c.StoreStats().LooselyConnected }

// Epoch returns the dataset's current update generation.
func (c *Client) Epoch() uint64 {
	return c.ds.Epoch()
}

// Apply routes a batch through the client's dataset: validated as a
// whole, applied atomically, producing a new epoch while in-flight
// queries keep answering on the generations they pinned. See
// Dataset.Apply for error semantics.
func (c *Client) Apply(ctx context.Context, b *Batch) (ApplyResult, error) {
	return c.ds.Apply(ctx, b)
}

// Connected reports whether target is reachable from source — the
// paper's "Is A connected to B?" query through the full facade
// (validation, planner, execution).
func (c *Client) Connected(ctx context.Context, source, target int) (bool, error) {
	res, err := c.Query(ctx, Request{Sources: []int{source}, Targets: []int{target}, Mode: ModeConnectivity})
	if err != nil {
		return false, err
	}
	return res.Answers[0].Reachable, nil
}

// Cost returns the cheapest path cost from source to target. Unlike
// Query — which reports unreachability as data — Cost promises a
// route: unreachable pairs return an error wrapping ErrNoRoute.
func (c *Client) Cost(ctx context.Context, source, target int) (float64, error) {
	res, err := c.Query(ctx, Request{Sources: []int{source}, Targets: []int{target}, Mode: ModeCost})
	if err != nil {
		return 0, err
	}
	if !res.Answers[0].Reachable {
		return 0, fmt.Errorf("tcq: %w from %d to %d", ErrNoRoute, source, target)
	}
	return res.Answers[0].Cost, nil
}

// QueryPath answers a single-pair cost query and reconstructs the
// actual node route, reading the pinned snapshot directly (snapshots
// are immutable, so this is safe on every client, including
// server-backed ones). Unreachable pairs return an error wrapping
// ErrNoRoute.
func (c *Client) QueryPath(ctx context.Context, source, target int) (Answer, *Route, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, nil, canceledErr(ctx)
	}
	snap := c.ds.Snapshot()
	res, route, err := snap.st.QueryPath(ctx, graph.NodeID(source), graph.NodeID(target))
	if err != nil {
		return Answer{}, nil, err
	}
	if route == nil {
		return Answer{}, nil, fmt.Errorf("tcq: %w from %d to %d", ErrNoRoute, source, target)
	}
	return answerFrom(source, target, ModeCost, res), route, nil
}

// storeRunner is the default executor: direct execution on the pinned
// snapshot's store with one goroutine per involved site (the paper's
// one-processor-per-fragment; a lone site runs on the caller's).
type storeRunner struct{}

// RunPair implements Runner.
func (storeRunner) RunPair(ctx context.Context, snap *Snapshot, source, target graph.NodeID, engine dsa.Engine, mode Mode) (*dsa.Result, RunStats, error) {
	if mode == ModePipelined {
		res, err := snap.st.QueryPipelinedEngineCtx(ctx, source, target, engine)
		return res, RunStats{}, err
	}
	plan, err := snap.st.NewPlan(source, target)
	if err != nil {
		return nil, RunStats{}, err
	}
	res, err := snap.st.RunPlanCtx(ctx, plan, engine)
	return res, RunStats{}, err
}
