package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/pkg/tcq"
)

// applyN applies n alternating insert/delete single-op batches through
// the dataset, advancing the epoch by exactly n.
func applyN(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var b tcq.Batch
		if i%2 == 0 {
			b.Insert(0, 0, 1, 9)
		} else {
			b.Delete(0, 0, 1, 9)
		}
		if _, err := srv.ApplyBatch(context.Background(), &b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
}

// TestSnapHistoryEvictionBoundary pins the 8-deep snapshot history
// ring's contract at its exact edge: after the current epoch reaches
// N, a peer leg pinned to epoch N-7 still serves (the oldest retained
// generation), while N-8 was just evicted and answers a typed 409
// epoch_skew. One batch later, the evicted generation is garbage: the
// ring holds nothing past its bound.
func TestSnapHistoryEvictionBoundary(t *testing.T) {
	srv, _ := newGridServer(t, 6, 6, 4, Config{CacheCapacity: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	first := weak.Make(srv.Dataset().Snapshot())

	// Epoch 0's snapshot is retained at construction; 8 applies later
	// the ring holds epochs 1..8 and epoch 0 just fell off.
	applyN(t, srv, epochHistoryDepth)
	current := srv.Dataset().Epoch()
	if current != uint64(epochHistoryDepth) {
		t.Fatalf("epoch %d after %d applies, want %d", current, epochHistoryDepth, epochHistoryDepth)
	}

	oldest := current - uint64(epochHistoryDepth) + 1 // N-7: still retained
	evicted := current - uint64(epochHistoryDepth)    // N-8: just evicted

	var leg cluster.LegResponse
	status := postV1(t, ts.URL+"/v1/leg", cluster.NewLegRequest(0, []graph.NodeID{0}, "dijkstra", oldest), &leg)
	if status != http.StatusOK || leg.Epoch != oldest {
		t.Errorf("leg at oldest retained epoch %d: status %d epoch %d, want 200 at %d", oldest, status, leg.Epoch, oldest)
	}
	var ve V1Error
	status = postV1(t, ts.URL+"/v1/leg", cluster.NewLegRequest(0, []graph.NodeID{0}, "dijkstra", evicted), &ve)
	if status != http.StatusConflict || ve.Code != "epoch_skew" {
		t.Errorf("leg at evicted epoch %d: status %d code %q, want 409 epoch_skew", evicted, status, ve.Code)
	}
	// Every retained generation serves, and the current one does too.
	for e := oldest; e <= current; e++ {
		var lr cluster.LegResponse
		if status := postV1(t, ts.URL+"/v1/leg", cluster.NewLegRequest(0, []graph.NodeID{0}, "dijkstra", e), &lr); status != http.StatusOK {
			t.Errorf("leg at retained epoch %d: status %d, want 200", e, status)
		}
	}
	applyN(t, srv, 1)
	runtime.GC()
	if first.Value() != nil {
		t.Error("the epoch-0 snapshot is still reachable after its eviction")
	}
}

// TestSnapHistoryConcurrentReadsAndSwaps races history reads (the
// /v1/leg resolution path) against concurrent epoch swaps: readers pin
// recent epochs while a writer applies batches that push generations
// through the ring. Run under -race (CI always does). Readers must
// only ever observe a snapshot with exactly the epoch they asked for,
// or a miss — never a mixed generation.
func TestSnapHistoryConcurrentReadsAndSwaps(t *testing.T) {
	srv, _ := newGridServer(t, 6, 6, 4, Config{CacheCapacity: 16})

	const writes = 40
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Chase the writer across the whole retained window.
				cur := srv.Dataset().Epoch()
				for back := uint64(0); back < epochHistoryDepth+2; back++ {
					if back > cur {
						break
					}
					epoch := cur - back
					if snap := srv.snapshotAt(epoch); snap != nil && snap.Epoch() != epoch {
						t.Errorf("snapshotAt(%d) returned epoch %d", epoch, snap.Epoch())
						return
					}
				}
			}
		}()
	}

	applyN(t, srv, writes)
	close(stop)
	wg.Wait()

	if got := srv.Dataset().Epoch(); got != writes {
		t.Fatalf("epoch %d after %d applies", got, writes)
	}
	// Post-race, the boundary contract still holds exactly.
	if snap := srv.snapshotAt(writes - epochHistoryDepth + 1); snap == nil {
		t.Error("oldest retained epoch missing after concurrent swaps")
	}
	if snap := srv.snapshotAt(writes - epochHistoryDepth); snap != nil {
		t.Error("evicted epoch still resolvable after concurrent swaps")
	}
}
