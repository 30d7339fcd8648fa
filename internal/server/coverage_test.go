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
// row; the entry ends as the complete row whatever their order, and a
// later put of a less settled row leaves a more settled one in place,
// while an equally settled one replaces it.
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
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.put(key, rows[i], tc.Stats{})
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
