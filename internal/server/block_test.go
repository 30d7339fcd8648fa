package server

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/pkg/tcq"
)

// recount is CacheStats.Bytes counted afresh from the entries the
// cache holds, a table-less one at entryOverhead alone.
func recount(c *legCache) (bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*cacheEntry); ent.table != nil {
			bytes += int64(ent.table.Bytes())
		}
		bytes += entryOverhead
	}
	return bytes
}

// checkExact fails unless the cache's running Bytes is what its entries
// hold.
func checkExact(t *testing.T, c *legCache, when string) {
	t.Helper()
	if got, bytes := c.snapshot().Bytes, recount(c); got != bytes {
		t.Errorf("%s: %d bytes; the entries hold %d", when, got, bytes)
	}
}

// transitOf returns the legs of the src→dst plan entered and left
// through disconnection sets: the ones a site memoizes blocks for.
func transitOf(t *testing.T, st *dsa.Store, src, dst graph.NodeID) []dsa.Leg {
	t.Helper()
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	var legs []dsa.Leg
	for _, l := range plan.Legs {
		if (len(l.Entry) != 1 || l.Entry[0] != src) && (len(l.Exit) != 1 || l.Exit[0] != dst) {
			legs = append(legs, l)
		}
	}
	return legs
}

// siteBlock returns the block the current snapshot's site gathers for
// leg on the dense engine, failing the test unless its table was
// already built.
func siteBlock(t *testing.T, srv *Server, leg dsa.Leg) *dsa.ExitBlock {
	t.Helper()
	b, built, err := srv.Dataset().Snapshot().Store().BorderBlockCtx(context.Background(), leg, dsa.EngineDense)
	if err != nil || b == nil || built {
		t.Fatalf("leg %+v: block %p, built %v, err %v; want the block of a built table", leg, b, built, err)
	}
	return b
}

// interior returns the nodes of frag that lie in no other fragment.
func interior(st *dsa.Store, frag int) []graph.NodeID {
	var out []graph.NodeID
	for _, n := range st.Fragmentation().Nodes() {
		if fs := st.Fragmentation().FragmentsOf(n); len(fs) == 1 && fs[0] == frag {
			out = append(out, n)
		}
	}
	return out
}

// TestServedTransitBlocks: the first query across the grid builds one
// border table per site it crosses and reads every leg from them, the
// leg cache untouched; a second query with other endpoints through the
// same middle fragments builds nothing and folds the very transit
// blocks the first memoized; a same-fragment pair from a border node
// reads its one leg from its site's table, the leg cache still
// untouched; a write that rebuilds a middle site drops its table from
// the snapshot's bytes, and the next query builds the rebuilt site's
// table alone and memoizes a fresh block on it. The warm server then
// answers every pair asked as the oracle does.
func TestServedTransitBlocks(t *testing.T) {
	srv, st := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 256})
	ask := func(when string, src, dst graph.NodeID) tcq.RunStats {
		t.Helper()
		_, rs, err := runPair(srv, src, dst, dsa.EngineDense, tcq.ModeCost)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		return rs
	}
	first := transitOf(t, st, 0, 63)
	if len(first) == 0 {
		t.Fatal("the corner-to-corner plan has no transit leg")
	}
	plan, err := st.NewPlan(0, 63)
	if err != nil {
		t.Fatal(err)
	}
	if rs := ask("cold", 0, 63); rs.CacheMisses != len(plan.SitesInvolved()) || rs.CacheHits != len(plan.Legs)-len(plan.SitesInvolved()) {
		t.Errorf("cold query: %+v; want a miss per site crossed (%d), a hit per other leg", rs, len(plan.SitesInvolved()))
	}
	cold := srv.Stats()
	if cold.SiteTables.Builds != uint64(len(plan.SitesInvolved())) || cold.SiteTables.Reads != uint64(len(plan.Legs)) || cold.SiteTables.Bytes <= 0 {
		t.Errorf("cold query: site tables %+v; want %d builds, %d reads and their bytes", cold.SiteTables, len(plan.SitesInvolved()), len(plan.Legs))
	}
	if cold.Cache.Hits+cold.Cache.Misses != 0 || cold.Cache.Entries != 0 {
		t.Errorf("cold query: leg cache %+v; a cross-fragment query never looks it up", cold.Cache)
	}
	kept := make([]*dsa.ExitBlock, len(first))
	for i, l := range first {
		kept[i] = siteBlock(t, srv, l)
	}
	src := interior(st, st.Fragmentation().FragmentsOf(0)[0])
	dst := interior(st, st.Fragmentation().FragmentsOf(63)[0])
	src2, dst2 := src[len(src)-1], dst[0]
	second := transitOf(t, st, src2, dst2)
	for _, l := range second {
		i := slices.IndexFunc(first, func(o dsa.Leg) bool {
			return o.SiteID == l.SiteID && slices.Equal(o.Entry, l.Entry) && slices.Equal(o.Exit, l.Exit)
		})
		if i < 0 {
			t.Fatalf("%d→%d has a transit leg %+v the first query did not", src2, dst2, l)
		}
		if got := siteBlock(t, srv, l); got != kept[i] {
			t.Errorf("transit leg %+v: block %p, the first query memoized %p", l, got, kept[i])
		}
	}
	if rs := ask("second pair", src2, dst2); rs.CacheMisses != 0 {
		t.Errorf("second pair: %+v; every site it crosses already has its table", rs)
	}
	if warm := srv.Stats().SiteTables; warm.Builds != cold.SiteTables.Builds || warm.Bytes != cold.SiteTables.Bytes {
		t.Errorf("second pair: site tables %+v, after the cold query %+v; want no build and no new block", warm, cold.SiteTables)
	}
	var border graph.NodeID = -1
	for _, n := range st.Fragmentation().Nodes() {
		if len(st.Fragmentation().FragmentsOf(n)) > 1 {
			border = n
			break
		}
	}
	inner := interior(st, st.Fragmentation().FragmentsOf(border)[0])
	if same, err := st.NewPlan(border, inner[0]); err != nil || !same.SameFragment || len(same.Legs) != 1 {
		t.Fatalf("%d→%d: plan %+v, err %v; want one same-fragment leg", border, inner[0], same, err)
	}
	warm := srv.Stats()
	if rs := ask("same fragment", border, inner[0]); rs.CacheHits != 1 || rs.CacheMisses != 0 {
		t.Errorf("same-fragment pair from border node %d: %+v; want its one leg a hit", border, rs)
	}
	if got := srv.Stats(); got.SiteTables.Reads != warm.SiteTables.Reads+1 || got.SiteTables.Builds != warm.SiteTables.Builds || got.Cache != warm.Cache {
		t.Errorf("same-fragment pair from border node %d: site tables %+v, leg cache %+v; want one more read than %+v, no build, the cache as it was (%+v)",
			border, got.SiteTables, got.Cache, warm.SiteTables, warm.Cache)
	}

	// An edge between two interior nodes of a middle fragment rebuilds
	// its site, which starts without a table.
	leg := first[0]
	old := srv.Dataset().Snapshot().Store().Site(leg.SiteID)
	before := srv.Stats().SiteTables
	inner = interior(st, leg.SiteID)
	if err := applyOne(srv, tcq.Insert(leg.SiteID, int(inner[0]), int(inner[len(inner)-1]), 1e6)); err != nil {
		t.Fatal(err)
	}
	rebuilt := srv.Dataset().Snapshot().Store().Site(leg.SiteID)
	if rebuilt == old {
		t.Fatal("the insert did not rebuild the site")
	}
	if got := srv.Stats().SiteTables.Bytes; rebuilt.TableBytes() != 0 || got != before.Bytes-old.TableBytes() {
		t.Errorf("after the write: %d bytes, the rebuilt site %d; want %d, the replaced site's table gone", got, rebuilt.TableBytes(), before.Bytes-old.TableBytes())
	}
	if rs := ask("after a write", 0, 63); rs.CacheMisses != 1 {
		t.Errorf("after the write: %+v; want one miss, the rebuilt site's table", rs)
	}
	if got := srv.Stats().SiteTables.Builds; got != before.Builds+1 {
		t.Errorf("after the write: %d builds, want %d", got, before.Builds+1)
	}
	if got := siteBlock(t, srv, leg); got == kept[0] {
		t.Error("the rebuilt site folds its predecessor's block")
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

// TestConcurrentTransitQueries: queries racing through the same sites
// build each site's table once and share their transit blocks without
// a data race (run under -race), each answering bit for bit what the
// library's kernel path answers — which the oracle holds to Dijkstra.
func TestConcurrentTransitQueries(t *testing.T) {
	srv, st := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 256})
	src := interior(st, st.Fragmentation().FragmentsOf(0)[0])
	dst := interior(st, st.Fragmentation().FragmentsOf(63)[0])
	lib, err := tcq.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	g := &oracle.Generation{Name: "8x8 grid", Fragmenter: "linear", Final: st.Fragmentation()}
	want := make(map[[2]graph.NodeID]float64)
	sites := make(map[int]bool)
	for _, s := range src {
		g.Sources = append(g.Sources, int(s))
		for _, d := range dst {
			plan, err := st.NewPlan(s, d)
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.RunPlanCtx(context.Background(), plan, dsa.EngineDense)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]graph.NodeID{s, d}] = res.Cost
			for _, id := range plan.SitesInvolved() {
				sites[id] = true
			}
		}
	}
	for _, d := range dst {
		g.Targets = append(g.Targets, int(d))
	}
	if err := new(oracle.Tally).Check(context.Background(), g, []oracle.View{{Name: "library", Q: lib}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				s, d := src[rng.Intn(len(src))], dst[rng.Intn(len(dst))]
				res, _, err := srv.RunPair(context.Background(), srv.Dataset().Snapshot(), s, d, dsa.EngineDense, tcq.ModeCost)
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[[2]graph.NodeID{s, d}]; math.Float64bits(res.Cost) != math.Float64bits(w) {
					t.Errorf("%d→%d: cost %v, kernel path %v", s, d, res.Cost, w)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := srv.Stats().SiteTables.Builds; got == 0 || got > uint64(len(sites)) {
		t.Errorf("%d table builds for %d sites, want 1..%d: one per site", got, len(sites), len(sites))
	}
}

// TestConcurrentSameKeyMisses: legs of concurrent queries on one site
// do not wait for each other, so misses on one cache key may all
// search. Eight queries released at once ask one same-fragment pair on
// a grid (its first misses search to the target, a later one caches
// the row) and one cross-fragment pair on the paper deployment, whose
// first leg caches its source's whole row on an asymmetric site. Every
// answer is bit for bit the library's, the cache ends with one entry
// per key, and the sites are charged exactly the legs the results
// report (run under -race).
func TestConcurrentSameKeyMisses(t *testing.T) {
	const engine, workers = dsa.EngineDense, 8
	grid, gridStore := newGridServer(t, 16, 16, 2, Config{CacheCapacity: 64})
	paper, paperStore := newPaperServer(t, Config{CacheCapacity: 64})
	gridSrc := interior(gridStore, 0)[0]
	targets, _ := sameFragmentTargets(t, gridStore, 0, gridSrc)
	paperSrc, paperDst, _ := crossPair(t, paperStore, -1)
	asks := []struct {
		name     string
		srv      *Server
		st       *dsa.Store
		src, dst graph.NodeID
		want     float64
		keys     map[legKey]bool
	}{
		{name: "grid same-fragment", srv: grid, st: gridStore, src: gridSrc, dst: targets[len(targets)/2]},
		{name: "paper cross-fragment", srv: paper, st: paperStore, src: paperSrc, dst: paperDst},
	}
	for i := range asks {
		a := &asks[i]
		lib, err := tcq.Open(a.st)
		if err != nil {
			t.Fatal(err)
		}
		if a.want, err = lib.Cost(context.Background(), int(a.src), int(a.dst)); err != nil {
			t.Fatal(err)
		}
		plan, err := a.st.NewPlan(a.src, a.dst)
		if err != nil {
			t.Fatal(err)
		}
		a.keys = make(map[legKey]bool)
		for _, leg := range plan.Legs {
			if len(leg.Entry) == 1 && leg.Entry[0] == a.src {
				a.keys[legKey{site: a.st.Site(leg.SiteID), engine: engine, source: a.src}] = true
			}
		}
		if len(a.keys) == 0 {
			t.Fatalf("%s: %d→%d has no leg from its source alone", a.name, a.src, a.dst)
		}
	}
	legs := make([]atomic.Int64, len(asks))
	var done sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func() {
			defer done.Done()
			<-start
			for i := range asks {
				a := &asks[(w+i)%len(asks)]
				res, _, err := a.srv.RunPair(context.Background(), a.srv.Dataset().Snapshot(), a.src, a.dst, engine, tcq.ModeCost)
				if err != nil {
					t.Error(err)
					return
				}
				if !res.Reachable || math.Float64bits(res.Cost) != math.Float64bits(a.want) {
					t.Errorf("%s %d→%d: cost %v (reachable %v), library %v", a.name, a.src, a.dst, res.Cost, res.Reachable, a.want)
				}
				for _, work := range res.PerSite {
					legs[(w+i)%len(asks)].Add(int64(work.Legs))
				}
			}
		}()
	}
	close(start)
	done.Wait()
	for i, a := range asks {
		if cs := a.srv.cache.snapshot(); cs.Entries != len(a.keys) {
			t.Errorf("%s: %d cache entries, want one per key (%d)", a.name, cs.Entries, len(a.keys))
		}
		for key := range a.keys {
			if _, ok := entryTable(a.srv.cache, key); !ok {
				t.Errorf("%s: no entry for site %d, source %d", a.name, key.site.ID, key.source)
			}
		}
		checkExact(t, a.srv.cache, a.name)
		var charged int64
		for _, work := range a.srv.Stats().Site {
			charged += int64(work.Legs)
		}
		if got := legs[i].Load(); charged != got {
			t.Errorf("%s: sites charged %d legs, the results report %d", a.name, charged, got)
		}
	}
}
