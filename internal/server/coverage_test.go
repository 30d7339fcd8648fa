package server

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/tc"
	"repro/pkg/tcq"
)

// sameFragmentTargets returns, for a source off the border of frag,
// the nodes off the border of frag its site reaches it to, nearest
// first, and the source's whole row on the site.
func sameFragmentTargets(t *testing.T, st *dsa.Store, frag int, src graph.NodeID) ([]graph.NodeID, *tc.CostMatrix) {
	t.Helper()
	kernel, err := st.Site(frag).DenseKernel()
	if err != nil {
		t.Fatal(err)
	}
	row, _, err := kernel.CostFromCtx(context.Background(), []graph.NodeID{src})
	if err != nil {
		t.Fatal(err)
	}
	var out []graph.NodeID
	for _, n := range interior(st, frag) {
		if c, ok := row.Col(n); ok && n != src && row.Cost[c] < math.Inf(1) {
			out = append(out, n)
		}
	}
	cost := func(n graph.NodeID) float64 { c, _ := row.Col(n); return row.Cost[c] }
	slices.SortStableFunc(out, func(a, b graph.NodeID) int {
		if ca, cb := cost(a), cost(b); ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		return 0
	})
	return out, row
}

// askSame runs src→dst, a same-fragment pair whose one leg is a kernel
// leg, and holds the answer to row, src's whole row on the site, bit
// for bit.
func askSame(t *testing.T, srv *Server, row *tc.CostMatrix, src, dst graph.NodeID) tcq.RunStats {
	t.Helper()
	res, rs, err := runPair(srv, src, dst, dsa.EngineDense, tcq.ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := row.Col(dst)
	if want := row.Cost[c]; !res.Reachable || math.Float64bits(res.Cost) != math.Float64bits(want) {
		t.Fatalf("%d→%d: cost %v (reachable %v), the whole row's cell %v", src, dst, res.Cost, res.Reachable, want)
	}
	return rs
}

// TestLegCacheFirstLegRowIsWhole: on the paper deployment, whose sites
// are asymmetric, a first leg from a source off the border — exits one
// disconnection set, all border nodes — caches its source's whole row,
// every cell CostFromCtx's, so the same source's first legs to the
// site's other disconnection sets are cached too and the next query
// from it to another fragment misses nothing.
func TestLegCacheFirstLegRowIsWhole(t *testing.T) {
	const engine = dsa.EngineDense
	srv, st := newPaperServer(t, Config{CacheCapacity: 64})
	// firstLegs returns src's distinct first legs to one node off the
	// border of each other fragment, and those nodes, if there are two
	// legs or more.
	firstLegs := func(src graph.NodeID) ([]dsa.Leg, []graph.NodeID, bool) {
		var firsts []dsa.Leg
		var targets []graph.NodeID
		for f := 1; f < st.Fragmentation().NumFragments(); f++ {
			dst := interior(st, f)[0]
			plan, err := st.NewPlan(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			for _, leg := range plan.Legs {
				if len(leg.Entry) != 1 || leg.Entry[0] != src || slices.ContainsFunc(firsts, func(o dsa.Leg) bool { return slices.Equal(o.Exit, leg.Exit) }) {
					continue
				}
				firsts = append(firsts, leg)
			}
			targets = append(targets, dst)
		}
		return firsts, targets, len(firsts) >= 2
	}
	var src graph.NodeID
	var firsts []dsa.Leg
	var targets []graph.NodeID
	found := false
	for _, src = range interior(st, 0) {
		if firsts, targets, found = firstLegs(src); found {
			break
		}
	}
	if !found {
		t.Fatal("no source off the border of fragment 0 with two first legs")
	}
	if _, _, err := runPair(srv, src, targets[0], engine, tcq.ModeCost); err != nil {
		t.Fatal(err)
	}
	if cs := srv.cache.snapshot(); cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("cold %d→%d: leg cache %+v; want one miss, one entry", src, targets[0], cs)
	}
	key := legKey{site: st.Site(firsts[0].SiteID), engine: engine, source: src}
	table, _ := entryTable(srv.cache, key)
	assertWholeRow(t, st, firsts[0].SiteID, src, table)
	for _, dst := range targets[1:] {
		if _, _, err := runPair(srv, src, dst, engine, tcq.ModeCost); err != nil {
			t.Fatal(err)
		}
	}
	if cs := srv.Stats().Cache; cs.Misses != 1 || cs.Entries != 1 || cs.Hits < uint64(len(targets)-1) {
		t.Errorf("%d's queries to fragments 1–%d: leg cache %+v; want the cold miss alone, a hit a query after it", src, len(targets), cs)
	}
}

// TestLegCacheSourcePoolEndsAtHits: grid-point's pool shape — a few
// sources, four targets each — on a grid whose same-fragment legs run
// between nodes off the border. Each source misses twice, its first
// target answered by one search and its second by the row it caches,
// which answers its other two; every answer is the whole row's cell,
// and a second pass over the pool is all hits, one entry per source.
func TestLegCacheSourcePoolEndsAtHits(t *testing.T) {
	srv, st := newGridServer(t, 16, 16, 2, Config{CacheCapacity: 64})
	sources := interior(st, 0)
	sources = []graph.NodeID{sources[0], sources[len(sources)/2], sources[len(sources)-1]}
	pool := map[graph.NodeID][]graph.NodeID{}
	rows := map[graph.NodeID]*tc.CostMatrix{}
	for _, src := range sources {
		targets, row := sameFragmentTargets(t, st, 0, src)
		rows[src] = row
		n := len(targets)
		pool[src] = []graph.NodeID{targets[n/8], targets[3*n/8], targets[5*n/8], targets[n-1]}
	}
	first := 0
	for _, src := range sources {
		for _, dst := range pool[src] {
			first += askSame(t, srv, rows[src], src, dst).CacheMisses
		}
	}
	if first != 2*len(sources) {
		t.Errorf("first pass: %d misses; want two per source (%d)", first, 2*len(sources))
	}
	for _, src := range sources {
		for _, dst := range pool[src] {
			if rs := askSame(t, srv, rows[src], src, dst); rs.CacheMisses != 0 || rs.CacheHits != 1 {
				t.Errorf("second pass %d→%d: %+v, want one hit", src, dst, rs)
			}
		}
	}
	if st := srv.cache.snapshot(); st.Entries != len(sources) {
		t.Errorf("%d entries, want one per source (%d)", st.Entries, len(sources))
	}
}

// entryTable returns the table of key's entry and whether it has one.
func entryTable(c *legCache, key legKey) (*tc.CostMatrix, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).table, true
}

// assertWholeRow holds a cached table to src's whole row on the site,
// every cell CostFromCtx's bit for bit.
func assertWholeRow(t *testing.T, st *dsa.Store, site int, src graph.NodeID, table *tc.CostMatrix) {
	t.Helper()
	kernel, err := st.Site(site).DenseKernel()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := kernel.CostFromCtx(context.Background(), []graph.NodeID{src})
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || !slices.Equal(table.Rows, want.Rows) || !slices.Equal(table.Cols, want.Cols) ||
		!slices.EqualFunc(table.Cost, want.Cost, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%d's cached table %v is not its whole row on site %d", src, table, site)
	}
}

// TestLegCacheSecondMissRule: a same-fragment leg has two outcomes
// besides a hit, on any site: on a grid, whose sites are symmetric,
// with the site's dense border table built (a goal-directed first
// miss), and on the paper deployment, whose sites are asymmetric (a
// first miss with no landmarks). A source's first miss leaves a
// table-less entry, charged entryOverhead, that answers no leg; its
// second miss caches the source's whole row; its third, and a leg from
// it to a different target, are hits. Every answer is the whole row's
// cell.
func TestLegCacheSecondMissRule(t *testing.T) {
	const engine = dsa.EngineDense
	grid, gridStore := newGridServer(t, 16, 16, 2, Config{CacheCapacity: 64})
	paper, paperStore := newPaperServer(t, Config{CacheCapacity: 64})
	for _, d := range []struct {
		name  string
		srv   *Server
		st    *dsa.Store
		table bool
	}{{"grid", grid, gridStore, true}, {"paper", paper, paperStore, false}} {
		srv, st := d.srv, d.st
		src := interior(st, 0)[0]
		if d.table {
			cross, err := st.NewPlan(src, interior(st, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := runPair(srv, src, interior(st, 1)[0], engine, tcq.ModeCost); err != nil {
				t.Fatal(err)
			}
			if b := srv.Stats().SiteTables.Builds; b != uint64(len(cross.SitesInvolved())) {
				t.Fatalf("%s: a cross-fragment query built %d border tables, want one a site (%d)", d.name, b, len(cross.SitesInvolved()))
			}
		}
		targets, row := sameFragmentTargets(t, st, 0, src)
		dst, other := targets[len(targets)/2], targets[len(targets)-1]
		plan, err := st.NewPlan(src, dst)
		if err != nil || !plan.SameFragment {
			t.Fatalf("%s: %d→%d: plan %+v, %v; want a same-fragment plan", d.name, src, dst, plan, err)
		}
		leg := sourceLeg(t, plan, src)
		key := legKey{site: st.Site(leg.SiteID), engine: engine, source: src}
		c := srv.cache
		before := c.snapshot()

		if rs := askSame(t, srv, row, src, dst); rs.CacheMisses != 1 || rs.CacheHits != 0 {
			t.Fatalf("%s: first %d→%d: %+v, want one miss", d.name, src, dst, rs)
		}
		if table, ok := entryTable(c, key); !ok || table != nil {
			t.Fatalf("%s: after the first miss: entry %v with table %v; want a table-less entry", d.name, ok, table)
		}
		if cs := c.snapshot(); cs.Entries != before.Entries+1 || cs.Bytes != before.Bytes+entryOverhead {
			t.Errorf("%s: after the first miss: %d entries, %d bytes; want %d and %d", d.name, cs.Entries, cs.Bytes, before.Entries+1, before.Bytes+entryOverhead)
		}

		if rs := askSame(t, srv, row, src, dst); rs.CacheMisses != 1 || rs.CacheHits != 0 {
			t.Fatalf("%s: second %d→%d: %+v, want one miss", d.name, src, dst, rs)
		}
		table, _ := entryTable(c, key)
		assertWholeRow(t, st, leg.SiteID, src, table)
		if cs := c.snapshot(); cs.Bytes != before.Bytes+entryBytes(key, table) {
			t.Errorf("%s: after the second miss: %d bytes, want %d", d.name, cs.Bytes, before.Bytes+entryBytes(key, table))
		}
		checkExact(t, c, d.name+" after the second miss")

		for _, to := range []graph.NodeID{dst, other} {
			if rs := askSame(t, srv, row, src, to); rs.CacheHits != 1 || rs.CacheMisses != 0 {
				t.Errorf("%s: %d→%d after the second miss: %+v, want one hit", d.name, src, to, rs)
			}
		}
	}
}

// TestLegCacheMarkedEntry: a table-less entry is held but answers no
// get, and counts no lookup when made; put replaces it, and marking a
// key with a table keeps the table, also when marks race with puts.
// CacheStats.Bytes charges it entryOverhead, and a sweep drops it with
// its rebuilt site.
func TestLegCacheMarkedEntry(t *testing.T) {
	gen0 := generation(2)
	c := newLegCache(4)
	k, other := key(gen0[0], 1), key(gen0[1], 1)
	c.mark(k)
	if cs := c.snapshot(); cs.Entries != 1 || cs.Bytes != entryOverhead || cs.Hits+cs.Misses != 0 {
		t.Errorf("after mark: %+v; want one entry of %d bytes, no lookup", cs, entryOverhead)
	}
	if got, _, held := c.get(k); !held || got != nil {
		t.Errorf("get on a table-less entry: %v, held %v; want no table, held", got, held)
	}
	if _, _, held := c.get(other); held {
		t.Error("get does not tell the marked key from an unseen one")
	}
	table := legTable(3)
	c.put(k, table, tc.Stats{})
	if got, _, ok := c.get(k); !ok || got != table {
		t.Errorf("put did not replace the table-less entry: %v, %v", got, ok)
	}
	c.mark(k)
	if got, _, ok := c.get(k); !ok || got != table {
		t.Errorf("mark replaced a table: %v, %v", got, ok)
	}
	c.mark(other)
	checkExact(t, c, "after two marks and a put")
	c.sweep(successor(gen0, 1))
	if _, held := entryTable(c, other); held {
		t.Error("after the sweep: the rebuilt site's marked entry is held")
	}
	if cs := c.snapshot(); cs.Invalidated != 1 || cs.Entries != 1 || cs.Bytes != entryBytes(k, table) {
		t.Errorf("after the sweep: %+v; want the rebuilt site's entry dropped", cs)
	}
	// Marks racing with puts for one key (run with -race) leave it its
	// table, whatever their order.
	raced := key(gen0[0], 2)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(2)
		go func() { defer wg.Done(); c.put(raced, table, tc.Stats{}) }()
		go func() { defer wg.Done(); c.mark(raced) }()
	}
	wg.Wait()
	if got, _, ok := c.get(raced); !ok || got != table {
		t.Errorf("after puts raced with marks: %v, %v; want the table", got, ok)
	}
	checkExact(t, c, "after puts raced with marks")
}
