package tcq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/store"
)

// Dataset is the mutable handle on a deployed graph: the single writer
// gate of the facade. It owns the current immutable store generation
// behind an atomic pointer; Apply builds the next generation copy-on-
// write (only touched fragments are re-preprocessed) and swaps the
// pointer, so readers NEVER block on writers — a query pins the
// Snapshot current when it starts and runs on it to completion while
// any number of batches land.
//
//	ds, _ := tcq.NewDataset(fr, tcq.BuildOptions{})
//	snap := ds.Snapshot()                   // pinned, immutable view
//	var b tcq.Batch
//	b.Insert(0, 3, 97, 1.5)
//	res, _ := ds.Apply(ctx, &b)             // atomic, new epoch
//	// snap still answers at its old epoch; ds.Snapshot() sees the new.
//
// Writers serialise among themselves (Apply holds a writer mutex), so
// epochs advance one batch at a time.
type Dataset struct {
	// applyMu serialises writers and the subscriber notifications, so
	// OnApply callbacks observe batches in epoch order.
	applyMu sync.Mutex
	cur     atomic.Pointer[Snapshot]

	// db is the attached durable store directory, nil for in-memory
	// datasets. Guarded by applyMu (writers journal under the gate).
	db *store.DB
	// loadSeconds records the boot-time snapshot/checkpoint load, for
	// PersistStats.
	loadSeconds float64

	subMu   sync.Mutex
	subs    []subscriber
	nextSub uint64
}

// subscriber is one registered OnApply callback with the handle its
// unsubscribe closure removes it by.
type subscriber struct {
	id uint64
	fn func(ApplyResult)
}

// Snapshot is one immutable generation of a dataset: a store plus the
// planner stats collected for it. Snapshots are safe for any number of
// concurrent readers, never change once obtained, and stay fully
// usable after later batches — they are how the facade gives queries a
// consistent view without read locks.
type Snapshot struct {
	st    *dsa.Store
	stats StoreStats
}

// ApplyResult reports one applied batch: the epoch the swap produced
// and the incremental-rebuild cost breakdown.
type ApplyResult struct {
	// Epoch is the dataset generation the batch produced.
	Epoch uint64
	// Stats is the cost breakdown: global searches, sites rebuilt
	// versus structurally shared.
	Stats BatchStats
	// Elapsed is the wall-clock time of the apply.
	Elapsed time.Duration
}

// NewDataset precomputes a disconnection-set deployment and wraps it
// in a mutable dataset — the one-call path from a fragmentation to an
// updatable, concurrently queryable deployment.
func NewDataset(fr *fragment.Fragmentation, opt BuildOptions) (*Dataset, error) {
	st, err := BuildStore(fr, opt)
	if err != nil {
		return nil, err
	}
	return OpenDataset(st)
}

// OpenDataset wraps an already built store in a dataset. The dataset
// takes ownership: mutate the graph through Apply only.
func OpenDataset(st *dsa.Store) (*Dataset, error) {
	if st == nil {
		return nil, errors.New("tcq: OpenDataset: nil store")
	}
	d := &Dataset{}
	d.cur.Store(&Snapshot{st: st, stats: CollectStats(st)})
	return d, nil
}

// Snapshot returns the current generation. It is wait-free: one atomic
// pointer load, no locks shared with writers.
func (d *Dataset) Snapshot() *Snapshot { return d.cur.Load() }

// Epoch returns the current generation's update epoch.
func (d *Dataset) Epoch() uint64 { return d.Snapshot().Epoch() }

// Apply validates the batch as a whole and applies it atomically,
// producing a new epoch: either every op lands or none does. Readers
// are never blocked — they keep answering on the previous generation
// until the swap, and queries in flight finish on the snapshot they
// pinned. Only fragments whose edge sets or complementary tables
// changed are re-preprocessed; the rest share structure with the
// previous epoch (see BatchStats.SitesShared).
//
// On refusal the error is a *BatchError carrying a typed error per
// offending op (errors.Is-able: ErrUnknownSite, ErrUnknownNode,
// ErrNegativeWeight, ErrEdgeNotFound, ErrEmptyFragment), and nothing
// is applied. An empty or nil batch returns ErrEmptyBatch.
func (d *Dataset) Apply(ctx context.Context, b *Batch) (ApplyResult, error) {
	if b == nil || b.Len() == 0 {
		return ApplyResult{}, fmt.Errorf("tcq: Apply: %w", ErrEmptyBatch)
	}
	if err := ctx.Err(); err != nil {
		return ApplyResult{}, canceledErr(ctx)
	}
	start := time.Now()
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	old := d.cur.Load()
	ops := b.edgeOps()
	next, stats, err := old.st.Apply(ctx, ops)
	if err != nil {
		return ApplyResult{}, err
	}
	// Write-ahead discipline: the batch is journaled and fsynced
	// before the swap makes it visible. If the journal refuses, the
	// batch is NOT acknowledged — readers keep the old generation and
	// a restart recovers exactly the epochs that were acknowledged.
	if d.db != nil {
		if err := d.db.Append(next, ops); err != nil {
			return ApplyResult{}, fmt.Errorf("tcq: Apply: %w", err)
		}
	}
	d.cur.Store(&Snapshot{st: next, stats: CollectStats(next)})
	res := ApplyResult{Epoch: next.Epoch(), Stats: stats, Elapsed: time.Since(start)}
	d.subMu.Lock()
	subs := append([]subscriber(nil), d.subs...)
	d.subMu.Unlock()
	for _, s := range subs {
		s.fn(res)
	}
	return res, nil
}

// OnApply registers a callback invoked after every successful Apply,
// while the writer gate is still held — callbacks therefore observe
// batches in epoch order, exactly once each. Serving layers use it for
// eager cache invalidation keyed by the rebuilt fragments. Register
// before serving; callbacks must not call Apply (deadlock). The
// returned func unsubscribes (idempotent) — a layer that shuts down
// must call it, or the dataset keeps the callback (and everything it
// closes over) alive and firing for its own lifetime.
func (d *Dataset) OnApply(fn func(ApplyResult)) (unsubscribe func()) {
	d.subMu.Lock()
	defer d.subMu.Unlock()
	id := d.nextSub
	d.nextSub++
	d.subs = append(d.subs, subscriber{id: id, fn: fn})
	return func() {
		d.subMu.Lock()
		defer d.subMu.Unlock()
		for i, s := range d.subs {
			if s.id == id {
				d.subs = append(d.subs[:i], d.subs[i+1:]...)
				return
			}
		}
	}
}

// Open wraps the dataset in a facade client: queries go through the
// client (validation, planner, runner), mutations through the
// dataset-backed update methods. Several clients may share one dataset.
func (d *Dataset) Open(opts ...Option) (*Client, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	c := &Client{ds: d, runner: o.runner}
	if c.runner == nil {
		c.runner = storeRunner{}
	}
	return c, nil
}

// Epoch returns the snapshot's update generation.
func (s *Snapshot) Epoch() uint64 { return s.st.Epoch() }

// Stats returns the planner inputs collected for this generation.
func (s *Snapshot) Stats() StoreStats { return s.stats }

// Store exposes the generation's immutable store for the internal
// layers that extend the facade (the serving layer's gated executor,
// the phe hierarchical planner). Treat it as read-only.
func (s *Snapshot) Store() *dsa.Store { return s.st }

// Preprocessing reports the cost of the preprocessing pass that built
// this generation (the full build for epoch 0, the incremental pass
// for later epochs).
func (s *Snapshot) Preprocessing() PreprocessStats { return s.st.Preprocessing() }

// Query answers a request against this pinned generation with direct
// store execution — the snapshot-scoped counterpart of Client.Query,
// for readers that must not observe later batches mid-request.
func (s *Snapshot) Query(ctx context.Context, req Request) (*Result, error) {
	return queryOn(ctx, s, storeRunner{}, req)
}

// QueryStream starts a lazy answer stream against this pinned
// generation (see Client.QueryStream).
func (s *Snapshot) QueryStream(ctx context.Context, req Request) (*Results, error) {
	return streamOn(ctx, s, storeRunner{}, req)
}

// Connected reports whether target is reachable from source in this
// generation.
func (s *Snapshot) Connected(ctx context.Context, source, target int) (bool, error) {
	res, err := s.Query(ctx, Request{Sources: []int{source}, Targets: []int{target}, Mode: ModeConnectivity})
	if err != nil {
		return false, err
	}
	return res.Answers[0].Reachable, nil
}

// Cost returns the cheapest path cost from source to target in this
// generation; unreachable pairs return an error wrapping ErrNoRoute.
func (s *Snapshot) Cost(ctx context.Context, source, target int) (float64, error) {
	res, err := s.Query(ctx, Request{Sources: []int{source}, Targets: []int{target}, Mode: ModeCost})
	if err != nil {
		return 0, err
	}
	if !res.Answers[0].Reachable {
		return 0, fmt.Errorf("tcq: %w from %d to %d", ErrNoRoute, source, target)
	}
	return res.Answers[0].Cost, nil
}
