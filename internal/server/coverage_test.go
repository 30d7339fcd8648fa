package server

import (
	"context"
	"math"
	"math/rand"
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

// TestLegCachePartialRowCoverage: on the paper deployment, whose sites
// are asymmetric, a same-fragment query from a source off the border
// runs the stop search and caches a partial row. The leg to a farther
// target, whose exit lies past the row's bound, is neither cheap nor a
// hit: it misses, runs its own search and replaces the entry, which
// then covers both legs' exits, so both queries hit from then on.
func TestLegCachePartialRowCoverage(t *testing.T) {
	const engine = dsa.EngineDense
	srv, st := newPaperServer(t, Config{CacheCapacity: 64})
	src := interior(st, 0)[0]
	targets, row := sameFragmentTargets(t, st, 0, src)
	near, far := targets[0], targets[len(targets)-1]
	legOf := func(dst graph.NodeID) dsa.Leg {
		plan, err := st.NewPlan(src, dst)
		if err != nil || !plan.SameFragment {
			t.Fatalf("%d→%d: plan %+v, %v; want a same-fragment plan", src, dst, plan, err)
		}
		return sourceLeg(t, plan, src)
	}
	nearLeg, farLeg := legOf(near), legOf(far)
	key := legKey{site: st.Site(nearLeg.SiteID), engine: engine, source: src}

	if rs := askSame(t, srv, row, src, near); rs.CacheMisses != 1 || rs.CacheHits != 0 {
		t.Fatalf("cold %d→%d: %+v, want one miss", src, near, rs)
	}
	table, _, ok := srv.cache.get(key, nearLeg.Exit)
	if !ok || table.Final(table.Cols) {
		t.Fatalf("%d's cached row: hit %v; want a partial row covering %d", src, ok, near)
	}
	if table.Final(farLeg.Exit) {
		t.Fatalf("the row stopped for %d already settles %d: pick a farther target", near, far)
	}
	before := srv.cache.snapshot()
	if srv.cheapLeg(st, farLeg, engine) || srv.cache.has(key, farLeg.Exit) {
		t.Errorf("%d→%d: the leg counts as cheap or cached on a row that does not settle its exit", src, far)
	}
	if after := srv.cache.snapshot(); after != before {
		t.Errorf("probing moved the cache counters: %+v → %+v", before, after)
	}
	if rs := askSame(t, srv, row, src, far); rs.CacheMisses != 1 || rs.CacheHits != 0 {
		t.Errorf("%d→%d past the bound: %+v, want one miss", src, far, rs)
	}
	if !srv.cache.has(key, nearLeg.Exit) || !srv.cache.has(key, farLeg.Exit) {
		t.Error("after the miss the entry does not cover both legs' exits")
	}
	if st := srv.cache.snapshot(); st.Entries != 1 {
		t.Errorf("%d entries, want the one row of %d", st.Entries, src)
	}
	for _, dst := range []graph.NodeID{near, far} {
		if rs := askSame(t, srv, row, src, dst); rs.CacheHits != 1 || rs.CacheMisses != 0 {
			t.Errorf("warm %d→%d: %+v, want one hit", src, dst, rs)
		}
	}
}

// TestLegCacheFirstLegRowIsWhole: on the paper deployment a first leg
// from a source off the border — exits one disconnection set, all
// border nodes — caches its source's whole row, not a row stopped at
// that set, so the same source's first legs to the site's other
// disconnection sets are cached too and the next query from it to
// another fragment misses nothing. The source is one whose row stopped
// at any of its first legs' exits would not be whole.
func TestLegCacheFirstLegRowIsWhole(t *testing.T) {
	const engine = dsa.EngineDense
	srv, st := newPaperServer(t, Config{CacheCapacity: 64})
	kernel, err := st.Site(0).DenseKernel()
	if err != nil {
		t.Fatal(err)
	}
	// firstLegs returns src's distinct first legs to one node off the
	// border of each other fragment, and those nodes, if a search
	// stopped at each leg's exits leaves the row partial.
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
				stopped, _, err := kernel.CostToCtx(context.Background(), src, leg.Exit)
				if err != nil {
					t.Fatal(err)
				}
				if stopped.Final(stopped.Cols) {
					return nil, nil, false
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
		t.Fatal("no source off the border of fragment 0 with two first legs that each stop short of the whole row")
	}
	if _, _, err := runPair(srv, src, targets[0], engine, tcq.ModeCost); err != nil {
		t.Fatal(err)
	}
	if cs := srv.cache.snapshot(); cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("cold %d→%d: leg cache %+v; want one miss, one entry", src, targets[0], cs)
	}
	key := legKey{site: st.Site(firsts[0].SiteID), engine: engine, source: src}
	table, _, ok := srv.cache.get(key, nil)
	if !ok || !table.Final(table.Cols) {
		t.Fatalf("%d's cached row: hit %v; want the whole row", src, ok)
	}
	for _, leg := range firsts {
		if !srv.cheapLeg(st, leg, engine) {
			t.Errorf("first leg %+v is not cheap on the cached row", leg)
		}
	}
	for _, dst := range targets[1:] {
		if _, _, err := runPair(srv, src, dst, engine, tcq.ModeCost); err != nil {
			t.Fatal(err)
		}
	}
	if cs := srv.cache.snapshot(); cs.Misses != 1 || cs.Entries != 1 {
		t.Errorf("%d's queries to fragments 1–%d: leg cache %+v; want the cold miss alone", src, len(targets), cs)
	}
}

// TestLegCachePutKeepsMoreSettled is for -race: puts for one key race
// with rows of one source stopped at different exits and its complete
// row, and with marks of the key as seen; the entry ends as the
// complete row whatever their order, and a later put of a less settled
// row leaves a more settled one in place, while an equally settled one
// replaces it.
func TestLegCachePutKeepsMoreSettled(t *testing.T) {
	srv, st := newPaperServer(t, Config{CacheCapacity: 64})
	src := interior(st, 0)[0]
	targets, full := sameFragmentTargets(t, st, 0, src)
	kernel, err := st.Site(0).DenseKernel()
	if err != nil {
		t.Fatal(err)
	}
	var rows []*tc.CostMatrix
	for _, dst := range []graph.NodeID{targets[0], targets[len(targets)/2], targets[len(targets)-1]} {
		row, _, err := kernel.CostToCtx(context.Background(), src, []graph.NodeID{dst})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	rows = append(rows, full)
	if !full.SettledAsFar(rows[0]) || rows[0].SettledAsFar(full) {
		t.Fatal("the complete row is not more settled than a stopped one")
	}
	key := legKey{site: st.Site(0), engine: dsa.EngineDense, source: src}
	c := srv.cache
	for round := range 20 {
		order := rand.New(rand.NewSource(int64(round))).Perm(len(rows))
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(2)
			go func() {
				defer wg.Done()
				c.put(key, rows[i], tc.Stats{})
			}()
			go func() {
				defer wg.Done()
				c.mark(key)
			}()
		}
		wg.Wait()
		if got, _, ok := c.get(key, nil); !ok || got != full {
			t.Fatalf("round %d (order %v): the entry is not the complete row", round, order)
		}
		c.put(key, rows[0], tc.Stats{})
		if got, _, _ := c.get(key, nil); got != full {
			t.Fatalf("round %d: a less settled put replaced the complete row", round)
		}
	}
	again, _, err := kernel.CostToCtx(context.Background(), src, []graph.NodeID{targets[0]})
	if err != nil {
		t.Fatal(err)
	}
	c.put(key, rows[0], tc.Stats{}) // the entry is complete: kept
	c.remove(c.byKey[key])
	c.put(key, rows[0], tc.Stats{})
	c.put(key, again, tc.Stats{})
	if got, _, _ := c.get(key, nil); got != again {
		t.Error("an equally settled put did not replace the entry")
	}
	if st := c.snapshot(); st.Entries != 1 || st.Bytes != entryBytes(key, again) {
		t.Errorf("entries %d, bytes %d; want the one entry counted once", st.Entries, st.Bytes)
	}
}

// TestLegCacheSourcePoolEndsAtHits: grid-point's pool shape — a few
// sources, four targets each — on a grid whose same-fragment legs
// between nodes off the border run the stop search. Each source's
// targets come nearest first, so each reaches past the row its
// predecessor left; every answer is the whole row's cell, and a second
// pass over the pool is all hits, one entry per source.
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
	if first <= len(sources) {
		t.Errorf("first pass: %d misses; want more than one per source, as each target lies past the last row's bound", first)
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

// TestLegCacheSecondMissRule: on a grid, whose sites are symmetric,
// once a site's dense border table is built a same-fragment leg has
// three outcomes. A source's first miss is answered goal-directed and
// leaves a table-less entry, charged entryOverhead, that answers no
// leg; its second miss runs the stop search and caches the row; its
// third is a hit. Every answer is the source's whole row's cell.
func TestLegCacheSecondMissRule(t *testing.T) {
	const engine = dsa.EngineDense
	srv, st := newGridServer(t, 16, 16, 2, Config{CacheCapacity: 64})
	src := interior(st, 0)[0]
	cross, err := st.NewPlan(src, interior(st, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runPair(srv, src, interior(st, 1)[0], engine, tcq.ModeCost); err != nil {
		t.Fatal(err)
	}
	if !st.BorderReady(sourceLeg(t, cross, src), engine) {
		t.Fatal("a cross-fragment query left site 0 without its dense border table")
	}
	targets, row := sameFragmentTargets(t, st, 0, src)
	dst := targets[len(targets)/2]
	plan, err := st.NewPlan(src, dst)
	if err != nil || !plan.SameFragment {
		t.Fatalf("%d→%d: plan %+v, %v; want a same-fragment plan", src, dst, plan, err)
	}
	leg := sourceLeg(t, plan, src)
	key := legKey{site: st.Site(leg.SiteID), engine: engine, source: src}
	c := srv.cache
	before := c.snapshot()

	if rs := askSame(t, srv, row, src, dst); rs.CacheMisses != 1 || rs.CacheHits != 0 {
		t.Fatalf("first %d→%d: %+v, want one miss", src, dst, rs)
	}
	if table, ok := entryTable(c, key); !ok || table != nil {
		t.Fatalf("after the first miss: entry %v with table %v; want a table-less entry", ok, table)
	}
	if cs := c.snapshot(); cs.Entries != before.Entries+1 || cs.Bytes != before.Bytes+entryOverhead {
		t.Errorf("after the first miss: %d entries, %d bytes; want %d and %d", cs.Entries, cs.Bytes, before.Entries+1, before.Bytes+entryOverhead)
	}
	if srv.cheapLeg(st, leg, engine) || c.has(key, leg.Exit) || c.has(key, nil) {
		t.Error("a table-less entry counts as cheap or cached")
	}

	if rs := askSame(t, srv, row, src, dst); rs.CacheMisses != 1 || rs.CacheHits != 0 {
		t.Fatalf("second %d→%d: %+v, want one miss", src, dst, rs)
	}
	table, _ := entryTable(c, key)
	if table == nil || !table.Final(leg.Exit) || table.Final(table.Cols) {
		t.Fatalf("after the second miss: table %v; want the stop search's row, final at %d and partial", table, dst)
	}
	if cs := c.snapshot(); cs.Bytes != before.Bytes+entryBytes(key, table) {
		t.Errorf("after the second miss: %d bytes, want %d", cs.Bytes, before.Bytes+entryBytes(key, table))
	}
	checkExact(t, c, "after the second miss")

	if rs := askSame(t, srv, row, src, dst); rs.CacheHits != 1 || rs.CacheMisses != 0 {
		t.Errorf("third %d→%d: %+v, want one hit", src, dst, rs)
	}
}

// TestLegCacheMarkedEntry: a table-less entry never satisfies get or
// has, whatever the exits, and counts no lookup when made; put replaces
// it, and marking a key with a table keeps the table. CacheStats.Bytes
// charges it entryOverhead, and a sweep drops it with its rebuilt site.
func TestLegCacheMarkedEntry(t *testing.T) {
	gen0 := generation(2)
	c := newLegCache(4)
	k, other := key(gen0[0], 1), key(gen0[1], 1)
	c.mark(k)
	if cs := c.snapshot(); cs.Entries != 1 || cs.Bytes != entryOverhead || cs.Hits+cs.Misses != 0 {
		t.Errorf("after mark: %+v; want one entry of %d bytes, no lookup", cs, entryOverhead)
	}
	for _, exits := range [][]graph.NodeID{nil, {1}, {2, 5}} {
		if c.has(k, exits) {
			t.Errorf("has(%v) on a table-less entry", exits)
		}
		if got, _, ok := c.get(k, exits); ok || got != nil {
			t.Errorf("get(%v) on a table-less entry: %v, %v", exits, got, ok)
		}
	}
	if !c.holds(k) || c.holds(other) {
		t.Error("holds does not tell the marked key from an unseen one")
	}
	table := legTable(3)
	c.put(k, table, tc.Stats{})
	if got, _, ok := c.get(k, nil); !ok || got != table {
		t.Errorf("put did not replace the table-less entry: %v, %v", got, ok)
	}
	c.mark(k)
	if got, _, ok := c.get(k, nil); !ok || got != table {
		t.Errorf("mark replaced a table: %v, %v", got, ok)
	}
	c.mark(other)
	checkExact(t, c, "after two marks and a put")
	c.sweep(successor(gen0, 1))
	if cs := c.snapshot(); c.holds(other) || cs.Invalidated != 1 || cs.Entries != 1 || cs.Bytes != entryBytes(k, table) {
		t.Errorf("after the sweep: %+v, marked entry held %v; want the rebuilt site's entry dropped", cs, c.holds(other))
	}
}
