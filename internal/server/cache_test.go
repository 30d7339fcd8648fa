package server

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/tc"
)

// legTable is a leg table with n+1 rows into one column: tables of
// different n differ in size.
func legTable(n int) *tc.CostMatrix {
	m := &tc.CostMatrix{Cols: []graph.NodeID{graph.NodeID(n + 1)}}
	for i := 0; i <= n; i++ {
		m.Rows = append(m.Rows, graph.NodeID(i))
		m.Cost = append(m.Cost, 1)
	}
	return m
}

// entryBytes is what an entry for k holding table adds to
// CacheStats.Bytes.
func entryBytes(k legKey, table *tc.CostMatrix) int64 {
	return (&cacheEntry{key: k, table: table}).bytes()
}

// generation returns n fresh sites with IDs 0..n-1, standing in for a
// store's Sites(); successor returns the next generation, which rebuilds
// the given IDs and shares every other site by pointer, as Apply does.
func generation(n int) []*dsa.Site {
	sites := make([]*dsa.Site, n)
	for i := range sites {
		sites[i] = &dsa.Site{ID: i}
	}
	return sites
}

func successor(prev []*dsa.Site, rebuilt ...int) []*dsa.Site {
	sites := append([]*dsa.Site(nil), prev...)
	for _, id := range rebuilt {
		sites[id] = &dsa.Site{ID: id}
	}
	return sites
}

// key is the Dijkstra leg entering site through the one node n.
func key(site *dsa.Site, n graph.NodeID) legKey {
	return legKey{site: site, engine: dsa.EngineDijkstra, source: n}
}

// TestLegCacheLRUEviction: the least recently used entry goes first,
// and CacheStats.Bytes rises by each put's entry and falls by the
// evicted one's.
func TestLegCacheLRUEviction(t *testing.T) {
	s := generation(1)[0]
	c := newLegCache(2)
	var want int64
	for n := 1; n <= 2; n++ {
		c.put(key(s, graph.NodeID(n)), legTable(n), tc.Stats{})
		want += entryBytes(key(s, graph.NodeID(n)), legTable(n))
		if got := c.snapshot().Bytes; got != want {
			t.Fatalf("after put %d: %d bytes, want %d", n, got, want)
		}
	}
	// Touch 1 so 2 is the least recently used.
	if _, _, ok := c.get(key(s, 1)); !ok {
		t.Fatal("1 missing")
	}
	c.put(key(s, 3), legTable(3), tc.Stats{})
	want += entryBytes(key(s, 3), legTable(3)) - entryBytes(key(s, 2), legTable(2))
	if got := c.snapshot().Bytes; got != want {
		t.Errorf("after the eviction: %d bytes, want %d", got, want)
	}
	if _, _, ok := c.get(key(s, 2)); ok {
		t.Error("2 should have been evicted (LRU)")
	}
	if _, _, ok := c.get(key(s, 1)); !ok {
		t.Error("1 should have survived")
	}
	if _, _, ok := c.get(key(s, 3)); !ok {
		t.Error("3 should be present")
	}
	st := c.snapshot()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

// TestLegCacheRebuiltSiteMisses: a table put for a site is never served
// to the site that replaced it under the same ID — with no sweep run,
// the key alone tells the two apart.
func TestLegCacheRebuiltSiteMisses(t *testing.T) {
	gen0 := generation(4)
	gen1 := successor(gen0, 2)
	c := newLegCache(4)
	c.put(key(gen0[2], 7), legTable(1), tc.Stats{})
	if _, _, ok := c.get(key(gen1[2], 7)); ok {
		t.Fatal("the rebuilt site of ID 2 hit its predecessor's table")
	}
	fresh := legTable(2)
	c.put(key(gen1[2], 7), fresh, tc.Stats{})
	if got, _, ok := c.get(key(gen1[2], 7)); !ok || got != fresh {
		t.Errorf("rebuilt site's own table: hit %v, table %v", ok, got)
	}
	if st := c.snapshot(); st.Entries != 2 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("entries %d, misses %d, hits %d; want 2, 1, 1", st.Entries, st.Misses, st.Hits)
	}
}

// TestLegCacheGetKeepsNewerEpoch: a reader still pinned to an older
// generation (a query that began before a swap, or a peer's /v1/leg
// answered from the history) hits the tables current readers put for
// sites the swap shared, and misses — leaving the current entry in
// place — on a site the swap rebuilt.
func TestLegCacheGetKeepsNewerEpoch(t *testing.T) {
	gen0 := generation(2)
	gen1 := successor(gen0, 1)
	c := newLegCache(4)
	shared, rebuilt := legTable(0), legTable(1)
	c.put(key(gen1[0], 5), shared, tc.Stats{})
	c.put(key(gen1[1], 5), rebuilt, tc.Stats{})
	if got, _, ok := c.get(key(gen0[0], 5)); !ok || got != shared {
		t.Errorf("old reader on the shared site: hit %v, table %v; want the current table", ok, got)
	}
	if _, _, ok := c.get(key(gen0[1], 5)); ok {
		t.Fatal("old reader on the rebuilt site was served the new site's table")
	}
	if got, _, ok := c.get(key(gen1[1], 5)); !ok || got != rebuilt {
		t.Errorf("current reader after an old reader's miss: hit %v, table %v; want the current table", ok, got)
	}
	if st := c.snapshot(); st.Entries != 2 || st.Misses != 1 || st.Hits != 2 {
		t.Errorf("entries %d, misses %d, hits %d; want 2, 1, 2", st.Entries, st.Misses, st.Hits)
	}
}

// TestLegCachePutKeepsNewestEpoch: a query that finishes late on an old
// pinned generation puts its table under its own site, so it cannot
// displace the current site's table.
func TestLegCachePutKeepsNewestEpoch(t *testing.T) {
	gen0 := generation(1)
	gen1 := successor(gen0, 0)
	c := newLegCache(4)
	current := legTable(5)
	c.put(key(gen1[0], 3), current, tc.Stats{})
	c.put(key(gen0[0], 3), legTable(4), tc.Stats{})
	if got, _, ok := c.get(key(gen1[0], 3)); !ok || got != current {
		t.Errorf("current reader after a lagging put: hit %v, table %v; want the current table", ok, got)
	}
	// The same key means the same table: a second put replaces it.
	again := legTable(5)
	c.put(key(gen1[0], 3), again, tc.Stats{})
	if got, _, ok := c.get(key(gen1[0], 3)); !ok || got != again {
		t.Error("a put for an existing key did not replace the entry")
	}
	if st := c.snapshot(); st.Entries != 2 || st.Bytes != entryBytes(key(gen1[0], 3), again)+entryBytes(key(gen0[0], 3), legTable(4)) {
		t.Errorf("entries %d, bytes %d; want 2 entries, the replaced one counted once", st.Entries, st.Bytes)
	}
}

// TestLegCacheInvalidateSweep pins the sweep an update swap runs:
// entries of rebuilt sites are dropped at once while entries of
// structurally shared sites are kept and keep serving — no stale
// entries lingering until LRU pressure, no warm entries lost to a
// blanket purge.
func TestLegCacheInvalidateSweep(t *testing.T) {
	gen0 := generation(3)
	gen1 := successor(gen0, 0)
	c := newLegCache(8)
	for _, s := range gen0 {
		c.put(key(s, 1), legTable(s.ID), tc.Stats{})
	}
	before := c.snapshot().Bytes
	c.sweep(gen1)
	if got, want := c.snapshot().Bytes, before-entryBytes(key(gen0[0], 1), legTable(0)); got != want {
		t.Errorf("after the sweep: %d bytes, want %d", got, want)
	}
	if _, _, ok := c.get(key(gen0[0], 1)); ok {
		t.Error("rebuilt-site entry survived the sweep")
	}
	for _, s := range gen1[1:] {
		if _, _, ok := c.get(key(s, 1)); !ok {
			t.Errorf("shared site %d lost its entry", s.ID)
		}
	}
	st := c.snapshot()
	if st.Invalidated != 1 || st.Retained != 2 || st.Sweeps != 1 {
		t.Errorf("invalidated = %d retained = %d sweeps = %d, want 1, 2, 1", st.Invalidated, st.Retained, st.Sweeps)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

// TestLegCacheInvalidateDropsLaggingPuts: an entry put by a query still
// running on an OLD pinned generation names a site no current reader
// can, so the next sweep drops it — whichever sites that sweep's batch
// rebuilt — while an entry computed on the current generation survives.
func TestLegCacheInvalidateDropsLaggingPuts(t *testing.T) {
	gen0 := generation(6)
	gen1 := successor(gen0, 3)
	c := newLegCache(8)
	c.sweep(gen1)
	// A query pinned at generation 0 finishes late and puts its site-3 leg.
	c.put(key(gen0[3], 1), legTable(1), tc.Stats{})
	c.put(key(gen1[5], 1), legTable(2), tc.Stats{})
	// Generation 2 rebuilds only site 4: site 3 is shared in this
	// transition, but the lagging entry names generation 0's site 3.
	gen2 := successor(gen1, 4)
	c.sweep(gen2)
	if _, _, ok := c.get(key(gen0[3], 1)); ok {
		t.Fatal("a lagging put on a replaced site survived the sweep")
	}
	if _, _, ok := c.get(key(gen2[5], 1)); !ok {
		t.Fatal("an entry on a current site must survive the sweep")
	}
	if st := c.snapshot(); st.Invalidated != 1 || st.Retained != 1 {
		t.Errorf("invalidated %d, retained %d; want 1, 1", st.Invalidated, st.Retained)
	}
}

func TestLegCacheDisabled(t *testing.T) {
	s := generation(1)[0]
	c := newLegCache(0)
	c.put(key(s, 1), legTable(1), tc.Stats{})
	if _, _, ok := c.get(key(s, 1)); ok {
		t.Error("capacity-0 cache stored an entry")
	}
	st := c.snapshot()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("disabled cache counted lookups: %+v", st)
	}
}

// TestLegKeyIgnoresExit pins what the key must tell apart: the site (by
// identity, not ID), the engine and the source — and nothing else,
// since no exit set is part of it. A leg entered through several nodes
// has no key: a peer's /v1/leg for one whose entry set is off the
// border is answered by the kernel and cached nowhere.
func TestLegKeyIgnoresExit(t *testing.T) {
	gen0 := generation(2)
	gen1 := successor(gen0, 0)
	k := legKey{site: gen0[0], engine: dsa.EngineDijkstra, source: 1}
	for name, other := range map[string]legKey{
		"engines":       {site: gen0[0], engine: dsa.EngineDense, source: 1},
		"sites":         {site: gen0[1], engine: dsa.EngineDijkstra, source: 1},
		"rebuilt sites": {site: gen1[0], engine: dsa.EngineDijkstra, source: 1},
		"sources":       {site: gen0[0], engine: dsa.EngineDijkstra, source: 2},
	} {
		if k == other {
			t.Errorf("%s share a key", name)
		}
	}

	srv, st := newGridServer(t, 8, 8, 2, Config{CacheCapacity: 256})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	entry := interior(st, 0)[:2]
	before := srv.Stats().Cache
	var leg cluster.LegResponse
	if status := postV1(t, ts.URL+"/v1/leg", cluster.NewLegRequest(0, entry, "dense", 0), &leg); status != http.StatusOK || len(leg.Src) == 0 {
		t.Fatalf("/v1/leg from %v: status %d, %d facts", entry, status, len(leg.Src))
	}
	if after := srv.Stats().Cache; after.Entries != before.Entries {
		t.Errorf("/v1/leg from %v took the cache from %d to %d entries; want it unchanged", entry, before.Entries, after.Entries)
	}
}

// TestLegCacheSnapshotRace is the synchronization proof for the /stats
// and /metrics read path: snapshot() must return a copy taken under
// the cache lock while writers mutate the counters through get, put
// and sweep. Run under -race this fails loudly if any stats field is
// ever read outside the lock.
func TestLegCacheSnapshotRace(t *testing.T) {
	c := newLegCache(8)
	gens := [][]*dsa.Site{generation(3)}
	for i := 0; i < 3; i++ {
		gens = append(gens, successor(gens[i], i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: misses, puts, hits, sweeps.
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
				gen := gens[i%len(gens)]
				k := key(gen[(w+i)%len(gen)], graph.NodeID((w*7+i)%4))
				if _, _, ok := c.get(k); !ok {
					c.put(k, legTable(i), tc.Stats{})
				}
				if i%50 == 0 {
					c.sweep(gen)
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
