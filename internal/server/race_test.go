package server

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/pkg/tcq"
)

// TestConcurrentQueriesAndUpdates is the race-detector stress test for
// the serving layer: gated cost queries, connectivity queries on every
// engine, pipelined queries and edge inserts/deletes all interleave on
// one server. Every worker pins a snapshot per query and holds the
// answer to the base graph of that snapshot's epoch, so the site-keyed
// cache, its sweep and the lock-free snapshot-pinning read path around
// the copy-on-write store swap must yield that epoch's exact answers,
// not merely no error — run with -race (CI always does).
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	srv, st := newGridServer(t, 6, 6, 3, Config{CacheCapacity: 128})
	if !st.LooselyConnected() {
		t.Fatal("the grid's linear fragmentation must be loosely connected, so every answer is exact")
	}
	nodes := st.Fragmentation().Base().NumNodes()
	const iters = 25
	var wg sync.WaitGroup

	// query runs one pair on a freshly pinned snapshot and returns the
	// answer with the truth at the pinned epoch. Half the pairs leave
	// node 0, the tail of the updater's shortcut below, so their truth
	// moves with the epoch.
	query := func(rng *rand.Rand, engine dsa.Engine, mode tcq.Mode) (*dsa.Result, float64, error) {
		snap := srv.Dataset().Snapshot()
		src := graph.NodeID(rng.Intn(nodes))
		if rng.Intn(2) == 0 {
			src = 0
		}
		dst := graph.NodeID(rng.Intn(nodes))
		res, _, err := srv.RunPair(context.Background(), snap, src, dst, engine, mode)
		return res, snap.Store().Fragmentation().Base().Distance(src, dst), err
	}
	// costWorker checks every cost answer against the pinned truth.
	costWorker := func(name string, seed int64, engine func(i int) dsa.Engine, mode tcq.Mode) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < iters; i++ {
			got, want, err := query(rng, engine(i), mode)
			if err != nil {
				t.Errorf("%s worker: %v", name, err)
				return
			}
			if got.Reachable != (want < graph.Inf) || (got.Reachable && math.Abs(got.Cost-want) > 1e-9) {
				t.Errorf("%s worker, %v: reachable %v cost %v, want distance %v at the pinned epoch", name, engine(i), got.Reachable, got.Cost, want)
				return
			}
		}
	}

	// Two gated cost-query workers (dijkstra and seminaive).
	for w, engine := range []dsa.Engine{dsa.EngineDijkstra, dsa.EngineSemiNaive} {
		wg.Add(1)
		go costWorker("query", int64(w), func(int) dsa.Engine { return engine }, tcq.ModeCost)
	}

	// A connectivity worker on the bitset engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < iters; i++ {
			got, want, err := query(rng, dsa.EngineBitset, tcq.ModeConnectivity)
			if err != nil {
				t.Errorf("connected worker: %v", err)
				return
			}
			if got.Reachable != (want < graph.Inf) {
				t.Errorf("connected = %v, want %v at the pinned epoch", got.Reachable, want < graph.Inf)
				return
			}
		}
	}()

	// A pipelined-query worker (the uncached library path, same lock).
	wg.Add(1)
	go costWorker("pipelined", 7, func(i int) dsa.Engine {
		if i%2 == 1 {
			return dsa.EngineDense
		}
		return dsa.EngineDijkstra
	}, tcq.ModePipelined)

	// An updater inserting and deleting the same shortcut, forcing
	// epoch bumps and eager cache sweeps while queries are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := applyOne(srv, tcq.Insert(0, 0, 14, 0.5)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			if err := applyOne(srv, tcq.Delete(0, 0, 14, 0.5)); err != nil {
				t.Errorf("delete %d: %v", i, err)
				return
			}
		}
	}()

	// A transactional writer applying multi-op batches through the
	// dataset — the /v1/update path — concurrently with the single-op
	// updater above (writers serialise on the dataset's gate).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			var b tcq.Batch
			b.Insert(1, 6, 20, 0.75).Delete(1, 6, 20, 0.75)
			if _, err := srv.ApplyBatch(context.Background(), &b); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
		}
	}()

	wg.Wait()

	// The server must still answer correctly after the storm.
	res, _, err := runPair(srv, 0, graph.NodeID(nodes-1), dsa.EngineDijkstra, tcq.ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable {
		t.Error("grid corners unreachable after stress")
	}
	if st := srv.Stats(); st.Updates != 12 {
		t.Errorf("updates = %d, want 12", st.Updates)
	}
}
