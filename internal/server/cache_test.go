package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

func rel(n int) *relation.Relation {
	r := relation.New("src", "dst", "cost")
	r.MustInsert(relation.Tuple{int64(n), int64(n + 1), 1.0})
	return r
}

func TestLegCacheLRUEviction(t *testing.T) {
	c := newLegCache(2)
	c.put("a", 0, 0, rel(1), tc.Stats{})
	c.put("b", 0, 0, rel(2), tc.Stats{})
	// Touch a so b is the least recently used.
	if _, _, ok := c.get("a", 0); !ok {
		t.Fatal("a missing")
	}
	c.put("c", 0, 0, rel(3), tc.Stats{})
	if _, _, ok := c.get("b", 0); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, _, ok := c.get("a", 0); !ok {
		t.Error("a should have survived")
	}
	if _, _, ok := c.get("c", 0); !ok {
		t.Error("c should be present")
	}
	s := c.snapshot()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}
}

func TestLegCacheEpochMismatch(t *testing.T) {
	c := newLegCache(4)
	c.put("k", 0, 1, rel(1), tc.Stats{})
	if _, _, ok := c.get("k", 2); ok {
		t.Fatal("stale-epoch entry served")
	}
	s := c.snapshot()
	if s.Expired != 1 {
		t.Errorf("expired = %d, want 1", s.Expired)
	}
	if s.Entries != 0 {
		t.Errorf("entries = %d, want 0 (stale entry dropped)", s.Entries)
	}
	// Refill under the new epoch works.
	c.put("k", 0, 2, rel(1), tc.Stats{})
	if _, _, ok := c.get("k", 2); !ok {
		t.Error("fresh entry missing")
	}
}

// TestLegCacheGetKeepsNewerEpoch: a reader still pinned to an older
// snapshot (a query that began before a swap, or a peer's /v1/leg at
// its pinned epoch) misses on a newer entry and leaves it in place, so
// the current readers keep hitting it.
func TestLegCacheGetKeepsNewerEpoch(t *testing.T) {
	c := newLegCache(4)
	current := rel(5)
	c.put("k", 0, 5, current, tc.Stats{})
	if _, _, ok := c.get("k", 4); ok {
		t.Fatal("get at epoch 4 served the epoch-5 table")
	}
	if got, _, ok := c.get("k", 5); !ok || got != current {
		t.Errorf("get at epoch 5 after an epoch-4 lookup: hit %v, table %v; want the epoch-5 table", ok, got)
	}
	if s := c.snapshot(); s.Expired != 0 || s.Entries != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Errorf("expired %d, entries %d, misses %d, hits %d; want 0, 1, 1, 1", s.Expired, s.Entries, s.Misses, s.Hits)
	}
}

// TestLegCachePutKeepsNewestEpoch: a query that finishes late on an old
// pinned snapshot must not swap a current-epoch table for its stale one
// — the next reader at the current epoch would drop it as expired and
// recompute the leg.
func TestLegCachePutKeepsNewestEpoch(t *testing.T) {
	c := newLegCache(4)
	current := rel(5)
	c.put("k", 0, 5, current, tc.Stats{})
	c.put("k", 0, 4, rel(4), tc.Stats{})
	if got, _, ok := c.get("k", 5); !ok || got != current {
		t.Errorf("get at epoch 5 after a lagging put at epoch 4: hit %v, table %v; want the epoch-5 table", ok, got)
	}
	if s := c.snapshot(); s.Expired != 0 || s.Entries != 1 {
		t.Errorf("expired %d, entries %d; want 0, 1", s.Expired, s.Entries)
	}
	// A newer epoch still replaces.
	newer := rel(6)
	c.put("k", 0, 6, newer, tc.Stats{})
	if got, _, ok := c.get("k", 6); !ok || got != newer {
		t.Error("put at a newer epoch did not replace the entry")
	}
}

// TestLegCacheInvalidateSweep pins the eager per-fragment sweep: on an
// update swap, entries of rebuilt sites are dropped immediately while
// entries of structurally shared sites are retagged to the new epoch
// and keep serving — no stale entries lingering until LRU pressure,
// no warm entries lost to a blanket purge.
func TestLegCacheInvalidateSweep(t *testing.T) {
	c := newLegCache(8)
	c.put("a", 0, 0, rel(1), tc.Stats{}) // site 0: rebuilt below
	c.put("b", 1, 0, rel(2), tc.Stats{}) // site 1: shared below
	c.put("d", 2, 0, rel(3), tc.Stats{}) // site 2: shared below
	c.invalidate([]int{0}, 1)
	if _, _, ok := c.get("a", 1); ok {
		t.Error("rebuilt-site entry survived the sweep")
	}
	// Shared-site entries serve at the NEW epoch without recomputation.
	if _, _, ok := c.get("b", 1); !ok {
		t.Error("shared-site entry b lost its retagged epoch")
	}
	if _, _, ok := c.get("d", 1); !ok {
		t.Error("shared-site entry d lost its retagged epoch")
	}
	s := c.snapshot()
	if s.Invalidated != 1 || s.Retained != 2 || s.Sweeps != 1 {
		t.Errorf("invalidated = %d retained = %d sweeps = %d, want 1, 2, 1", s.Invalidated, s.Retained, s.Sweeps)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}
}

// TestLegCacheInvalidateDropsLaggingPuts pins the staleness guard: an
// entry put by a query that was still running on an OLD pinned
// snapshot may predate intermediate rebuilds of its site, so a later
// sweep must drop it rather than retag it — even though its site is
// not in the current sweep's rebuilt list.
func TestLegCacheInvalidateDropsLaggingPuts(t *testing.T) {
	c := newLegCache(8)
	// Epoch 0→1 rebuilds site 3; the key is not cached yet.
	c.invalidate([]int{3}, 1)
	// A query pinned at epoch 0 finishes late and puts its (stale for
	// epoch ≥ 1) site-3 leg under epoch 0.
	c.put("lag", 3, 0, rel(1), tc.Stats{})
	// Epoch 1→2 touches only site 5. Site 3 is "shared" in THIS
	// transition, but the lagging entry predates the 0→1 rebuild.
	c.invalidate([]int{5}, 2)
	if _, _, ok := c.get("lag", 2); ok {
		t.Fatal("lagging old-epoch entry was revived as current — stale data served")
	}
	// A current-epoch entry put between swap and sweep survives as is.
	c.put("fresh", 5, 3, rel(2), tc.Stats{})
	c.invalidate([]int{1}, 3)
	if _, _, ok := c.get("fresh", 3); !ok {
		t.Fatal("entry computed on the new generation must survive its own sweep")
	}
}

func TestLegCacheDisabled(t *testing.T) {
	c := newLegCache(0)
	c.put("a", 0, 0, rel(1), tc.Stats{})
	if _, _, ok := c.get("a", 0); ok {
		t.Error("capacity-0 cache stored an entry")
	}
	s := c.snapshot()
	if s.Hits != 0 || s.Misses != 0 {
		t.Errorf("disabled cache counted lookups: %+v", s)
	}
}

func TestLegKeyIgnoresExit(t *testing.T) {
	a := legKey(3, []graph.NodeID{1, 2}, 0)
	b := legKey(3, []graph.NodeID{1, 2}, 0)
	if a != b {
		t.Errorf("same leg keys differ: %q vs %q", a, b)
	}
	if legKey(3, []graph.NodeID{1, 2}, 0) == legKey(3, []graph.NodeID{1, 2}, 1) {
		t.Error("engines share a key")
	}
	if legKey(3, []graph.NodeID{1, 2}, 0) == legKey(4, []graph.NodeID{1, 2}, 0) {
		t.Error("sites share a key")
	}
	if legKey(3, []graph.NodeID{1, 2}, 0) == legKey(3, []graph.NodeID{1, 22}, 0) {
		t.Error("entry sets share a key")
	}
	// The separator must keep (12) and (1,2) apart.
	if legKey(3, []graph.NodeID{12}, 0) == legKey(3, []graph.NodeID{1, 2}, 0) {
		t.Error("ambiguous entry-set rendering")
	}
	// The rendering itself is pinned: cluster members and cached entries
	// of an older build key the same leg the same way.
	if got, want := legKey(3, []graph.NodeID{1, -22}, dsa.EngineDense), "dense|3|1,-22,"; got != want {
		t.Errorf("legKey = %q, want %q", got, want)
	}
}

// TestLegCacheSnapshotRace is the synchronization proof for the /stats
// and /metrics read path: snapshot() must return a copy taken under
// the cache lock while writers mutate the counters through get, put
// and invalidate. Run under -race this fails loudly if any stats field
// is ever read outside the lock.
func TestLegCacheSnapshotRace(t *testing.T) {
	c := newLegCache(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: misses, puts, hits, expirations, sweeps.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", (w*7+i)%12)
				epoch := uint64(i % 3)
				if _, _, ok := c.get(key, epoch); !ok {
					c.put(key, w, epoch, rel(i), tc.Stats{})
				}
				if i%50 == 0 {
					c.invalidate([]int{w}, epoch+1)
				}
			}
		}(w)
	}
	// Readers: concurrent snapshots; each must be internally consistent
	// enough to be a value copy (no torn map/slice state exists in
	// CacheStats — the race detector is the real assertion here).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := c.snapshot()
				if s.Entries > 8 {
					t.Errorf("snapshot entries %d exceed capacity 8", s.Entries)
					return
				}
			}
		}()
	}
	// Let the snapshot readers finish against live writers, then stop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	<-done
}
