package server

import (
	"context"
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
// one server. It guards the epoch-tagged cache, the eager per-fragment
// invalidation sweep and the lock-free snapshot-pinning read path
// around the copy-on-write store swap — run with -race (CI always
// does).
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	srv, st := newGridServer(t, 6, 6, 3, Config{CacheCapacity: 128})
	nodes := st.Fragmentation().Base().NumNodes()
	const iters = 25
	var wg sync.WaitGroup

	// Two gated cost-query workers (dijkstra and seminaive).
	for w, engine := range []dsa.Engine{dsa.EngineDijkstra, dsa.EngineSemiNaive} {
		wg.Add(1)
		go func(w int, engine dsa.Engine) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				src := graph.NodeID(rng.Intn(nodes))
				dst := graph.NodeID(rng.Intn(nodes))
				if _, _, err := runPair(srv, src, dst, engine, tcq.ModeCost); err != nil {
					t.Errorf("query worker %d: %v", w, err)
					return
				}
			}
		}(w, engine)
	}

	// A connectivity worker on the bitset engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < iters; i++ {
			src := graph.NodeID(rng.Intn(nodes))
			dst := graph.NodeID(rng.Intn(nodes))
			got, _, err := runPair(srv, src, dst, dsa.EngineBitset, tcq.ModeConnectivity)
			if err != nil {
				t.Errorf("connected worker: %v", err)
				return
			}
			// The grid stays connected through every update below.
			if !got.Reachable {
				t.Errorf("connected(%d, %d) = false on a connected grid", src, dst)
				return
			}
		}
	}()

	// A pipelined-query worker (the uncached library path, same lock).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < iters; i++ {
			src := graph.NodeID(rng.Intn(nodes))
			dst := graph.NodeID(rng.Intn(nodes))
			engine := dsa.EngineDijkstra
			if i%2 == 1 {
				engine = dsa.EngineDense
			}
			if _, _, err := runPair(srv, src, dst, engine, tcq.ModePipelined); err != nil {
				t.Errorf("pipelined worker: %v", err)
				return
			}
		}
	}()

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
