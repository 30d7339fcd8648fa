package dsa

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/tc"
)

// Typed error sentinels of the disconnection-set layer. They replace
// the historical fmt.Errorf string sentinels so that callers — the
// serving layer, the public pkg/tcq facade, tests — can branch with
// errors.Is instead of matching message substrings. Every error this
// package returns wraps exactly one of these (or a kernel sentinel
// re-exported below), with the free-text detail kept in the wrapping
// message.
var (
	// ErrUnknownEngine reports an engine name or value outside the known
	// set (dijkstra, seminaive, bitset, dense).
	ErrUnknownEngine = errors.New("unknown engine")
	// ErrUnknownProblem reports a problem name or value outside the
	// known set (shortestpath, reachability).
	ErrUnknownProblem = errors.New("unknown problem")
	// ErrUnknownNode reports a query endpoint that is not a node of the
	// deployed graph. A node of the graph that no fragment holds is known:
	// it is unreachable, except from itself.
	ErrUnknownNode = errors.New("unknown node")
	// ErrUnknownSite reports a site/fragment ID outside the deployment.
	ErrUnknownSite = errors.New("unknown site")
	// ErrEngineMismatch reports an engine that cannot serve the
	// requested evaluation: the connectivity-only bitset engine asked
	// for costs, or a non-vector-seeded engine asked to pipeline.
	ErrEngineMismatch = errors.New("engine cannot serve this query")
	// ErrProblemMismatch reports a store whose precomputed problem
	// cannot serve the query — a reachability store asked for costs.
	ErrProblemMismatch = errors.New("store problem cannot serve this query")
	// ErrNoRoute reports that no path connects the requested endpoints
	// (surfaced by the callers that promise a route, e.g. path
	// reconstruction and the facade's Cost convenience).
	ErrNoRoute = errors.New("no route")
	// ErrEmptyBatch reports an Apply call with no operations.
	ErrEmptyBatch = errors.New("empty update batch")
	// ErrEdgeNotFound reports a delete of an edge that is not in the
	// named fragment (the (from, to, weight) triple must match a stored
	// fragment edge exactly).
	ErrEdgeNotFound = errors.New("edge not in fragment")
	// ErrEmptyFragment reports a delete that would leave a fragment with
	// no edges — an empty fragment is a processor with no work and a
	// hole in the fragmentation graph, so the batch is refused.
	ErrEmptyFragment = errors.New("update would empty fragment")

	// ErrNegativeWeight and ErrCanceled are the kernel-layer sentinels,
	// re-exported so dsa callers need not import internal/tc: a negative
	// edge weight refused by the cost kernels, and a context
	// cancellation observed mid-computation.
	ErrNegativeWeight = tc.ErrNegativeWeight
	ErrCanceled       = tc.ErrCanceled
)

// canceledErr wraps a context error as an ErrCanceled, preserving both
// sentinels for errors.Is (the same convention as the kernel layer).
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("dsa: %w (%w)", ErrCanceled, context.Cause(ctx))
}
