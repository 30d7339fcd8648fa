package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/tc"
	"repro/pkg/tcq"
)

// recount is CacheStats.Bytes counted afresh from the entries the
// cache holds, and the blocks they memoize.
func recount(c *legCache) (bytes int64, blocks int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		bytes += int64(ent.table.Bytes() + len(ent.key.entry) + entryOverhead)
		for _, b := range ent.blocks {
			bytes += int64(b.Bytes() + 8)
			blocks++
		}
	}
	return bytes, blocks
}

// checkExact fails unless the cache's running Bytes is what its entries
// hold, and returns how many blocks they memoize.
func checkExact(t *testing.T, c *legCache, when string) int {
	t.Helper()
	bytes, blocks := recount(c)
	if got := c.snapshot().Bytes; got != bytes {
		t.Errorf("%s: %d bytes; the entries hold %d", when, got, bytes)
	}
	return blocks
}

// TestLegCacheBlocksLiveWithTheirEntry: an entry memoizes one block per
// exit set given distinct and ascending, answers others without keeping
// them, and gives none for a table it does not hold; its blocks go when
// it does — evicted, replaced or swept — and Bytes stays exact down to
// an empty cache.
func TestLegCacheBlocksLiveWithTheirEntry(t *testing.T) {
	gen0 := generation(1)
	s := gen0[0]
	c := newLegCache(2)
	leg := func(exit ...graph.NodeID) dsa.Leg { return dsa.Leg{Entry: []graph.NodeID{1}, Exit: exit} }
	t1 := &tc.CostMatrix{Rows: []graph.NodeID{1, 2}, Cols: []graph.NodeID{1, 2, 3}, Cost: []float64{math.Inf(1), 1, 2, 3, math.Inf(1), 4}}
	c.put(key(s, 1), t1, tc.Stats{})
	b := c.block(key(s, 1), t1, leg(2, 3))
	if b == nil || !slices.Equal(b.Exits(), []graph.NodeID{2, 3}) {
		t.Fatalf("block %+v, want exits [2 3]", b)
	}
	if again := c.block(key(s, 1), t1, leg(2, 3)); again != b {
		t.Error("a second query through the same exits selected a new block")
	}
	if other := c.block(key(s, 1), t1, leg(1, 3)); other == b || !slices.Equal(other.Exits(), []graph.NodeID{1, 3}) {
		t.Errorf("exits [1 3]: block %+v, want a block of its own", other)
	}
	if n := checkExact(t, c, "two exit sets"); n != 2 {
		t.Errorf("%d blocks memoized, want 2", n)
	}
	if unsorted := c.block(key(s, 1), t1, leg(3, 2)); unsorted == nil || !slices.Equal(unsorted.Exits(), []graph.NodeID{2, 3}) {
		t.Error("exits not in ascending order got no block of their own")
	}
	if c.block(key(s, 1), legTable(1), leg(2)) != nil || c.block(key(s, 2), t1, leg(2)) != nil {
		t.Error("a block for a table the cache does not hold under the key")
	}
	if n := checkExact(t, c, "refusals"); n != 2 {
		t.Errorf("%d blocks memoized, want 2: unsorted exits and foreign tables are not kept", n)
	}

	// Replaced by a racing put: the new entry starts without blocks.
	c.put(key(s, 1), t1, tc.Stats{})
	if n := checkExact(t, c, "replaced"); n != 0 {
		t.Errorf("a replaced entry left %d blocks", n)
	}
	c.block(key(s, 1), t1, leg(2, 3))
	// Evicted: two more entries push it out, blocks and all.
	t2, t3 := legTable(2), legTable(3)
	c.put(key(s, 2), t2, tc.Stats{})
	c.block(key(s, 2), t2, leg(3))
	c.put(key(s, 3), t3, tc.Stats{})
	if _, _, ok := c.get(key(s, 1)); ok {
		t.Fatal("1 should have been evicted")
	}
	if n := checkExact(t, c, "evicted"); n != 1 {
		t.Errorf("%d blocks after evicting an entry, want 1, the survivor's", n)
	}
	c.block(key(s, 3), t3, leg(4))
	// Swept: a batch rebuilt the site, then another; the cache empties.
	gen1 := successor(gen0, 0)
	c.sweep(gen1)
	c.sweep(successor(gen1, 0))
	checkExact(t, c, "swept")
	if st := c.snapshot(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("emptied cache: %d entries, %d bytes; want 0, 0", st.Entries, st.Bytes)
	}
}

// transitOf returns the legs of the src→dst plan a served query memoizes
// blocks for.
func transitOf(t *testing.T, st *dsa.Store, src, dst graph.NodeID) []dsa.Leg {
	t.Helper()
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	var legs []dsa.Leg
	for _, l := range plan.Legs {
		if transitLeg(l, src, dst) {
			legs = append(legs, l)
		}
	}
	return legs
}

// interior returns the nodes of frag that lie in no other fragment.
func interior(st *dsa.Store, frag int) []graph.NodeID {
	var out []graph.NodeID
	for _, n := range st.Fragmentation().Base().Nodes() {
		if fs := st.Fragmentation().FragmentsOf(n); len(fs) == 1 && fs[0] == frag {
			out = append(out, n)
		}
	}
	return out
}

// TestServedTransitBlocks: the first query across the grid memoizes one
// block per transit leg; a second query with other endpoints through
// the same middle fragments builds none; a write that rebuilds a middle
// site drops its entry, and the next query memoizes a fresh block for
// the rebuilt site. Bytes stays exact throughout, and the warm server
// then answers every pair asked as the oracle does.
func TestServedTransitBlocks(t *testing.T) {
	srv, st := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 256})
	ask := func(when string, src, dst graph.NodeID) (blocks int) {
		t.Helper()
		if _, _, err := runPair(srv, src, dst, dsa.EngineDense, tcq.ModeCost); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		return checkExact(t, srv.cache, when)
	}
	first := transitOf(t, st, 0, 63)
	if len(first) == 0 {
		t.Fatal("the corner-to-corner plan has no transit leg")
	}
	cold := ask("cold", 0, 63)
	if cold != len(first) {
		t.Errorf("cold query memoized %d blocks, want one per transit leg (%d)", cold, len(first))
	}
	src := interior(st, st.Fragmentation().FragmentsOf(0)[0])
	dst := interior(st, st.Fragmentation().FragmentsOf(63)[0])
	src2, dst2 := src[len(src)-1], dst[0]
	second := transitOf(t, st, src2, dst2)
	for _, l := range second {
		if !slices.ContainsFunc(first, func(o dsa.Leg) bool {
			return o.SiteID == l.SiteID && slices.Equal(o.Entry, l.Entry) && slices.Equal(o.Exit, l.Exit)
		}) {
			t.Fatalf("%d→%d has a transit leg %+v the first query did not", src2, dst2, l)
		}
	}
	if warm := ask("second pair", src2, dst2); warm != cold {
		t.Errorf("second pair: %d blocks, want %d: a shared transit leg built a block", warm, cold)
	}

	// An edge between two interior nodes of a middle fragment rebuilds
	// its site, so the transit entry on it goes and its block with it.
	leg := first[0]
	kept := memoized(srv, leg)
	if kept == nil {
		t.Fatalf("no block memoized for %+v", leg)
	}
	inner := interior(st, leg.SiteID)
	if err := applyOne(srv, tcq.Insert(leg.SiteID, int(inner[0]), int(inner[len(inner)-1]), 1e6)); err != nil {
		t.Fatal(err)
	}
	if srv.Dataset().Snapshot().Store().Site(leg.SiteID) == st.Site(leg.SiteID) {
		t.Fatal("the insert did not rebuild the site")
	}
	after := ask("after a write", 0, 63)
	if got := memoized(srv, leg); got == nil || got == kept || after != cold {
		t.Errorf("after the write: block %p (was %p), %d blocks (was %d); want a fresh block on the rebuilt site", got, kept, after, cold)
	}
	g := &oracle.Generation{
		Name: "8x8 grid", Fragmenter: "linear", Final: srv.Dataset().Snapshot().Store().Fragmentation(),
		Sources: []int{0, int(src2)}, Targets: []int{63, int(dst2)},
	}
	if err := new(oracle.Tally).Check(context.Background(), g, []oracle.View{{Name: "warm", Q: srv.Facade()}}); err != nil {
		t.Error(err)
	}
	checkExact(t, srv.cache, "after the oracle")
}

// memoized returns the block the cache holds for leg on the current
// snapshot's site, dense engine, without touching the LRU or counters.
func memoized(srv *Server, leg dsa.Leg) *dsa.ExitBlock {
	k := newLegKey(srv.Dataset().Snapshot().Store().Site(leg.SiteID), leg.Entry, dsa.EngineDense)
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	el, ok := srv.cache.byKey[k]
	if !ok {
		return nil
	}
	for _, b := range el.Value.(*cacheEntry).blocks {
		if slices.Equal(b.Exits(), leg.Exit) {
			return b
		}
	}
	return nil
}

// TestConcurrentTransitQueries: queries racing through the same transit
// entries share their blocks without a data race (run under -race),
// each answering bit for bit what a server without a cache answers —
// which the oracle holds to Dijkstra — and leave at most one block per
// transit leg.
func TestConcurrentTransitQueries(t *testing.T) {
	srv, st := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 256})
	src := interior(st, st.Fragmentation().FragmentsOf(0)[0])
	dst := interior(st, st.Fragmentation().FragmentsOf(63)[0])
	uncached := newServer(t, st, Config{})
	g := &oracle.Generation{Name: "8x8 grid", Fragmenter: "linear", Final: st.Fragmentation()}
	want := make(map[[2]graph.NodeID]float64)
	for _, s := range src {
		g.Sources = append(g.Sources, int(s))
		for _, d := range dst {
			res, _, err := runPair(uncached, s, d, dsa.EngineDense, tcq.ModeCost)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]graph.NodeID{s, d}] = res.Cost
		}
	}
	for _, d := range dst {
		g.Targets = append(g.Targets, int(d))
	}
	if err := new(oracle.Tally).Check(context.Background(), g, []oracle.View{{Name: "uncached", Q: uncached.Facade()}}); err != nil {
		t.Fatal(err)
	}
	transit := make(map[string]bool)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				s, d := src[rng.Intn(len(src))], dst[rng.Intn(len(dst))]
				mu.Lock()
				for _, l := range transitOf(t, st, s, d) {
					transit[fmt.Sprint(l.SiteID, l.Entry, l.Exit)] = true
				}
				mu.Unlock()
				res, _, err := srv.RunPair(context.Background(), srv.Dataset().Snapshot(), s, d, dsa.EngineDense, tcq.ModeCost)
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[[2]graph.NodeID{s, d}]; math.Float64bits(res.Cost) != math.Float64bits(w) {
					t.Errorf("%d→%d: cost %v, uncached %v", s, d, res.Cost, w)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := checkExact(t, srv.cache, "after the race"); n == 0 || n > len(transit) {
		t.Errorf("%d blocks for %d transit legs, want 1..%d", n, len(transit), len(transit))
	}
}
