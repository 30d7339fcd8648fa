package server

import (
	"container/list"
	"sync"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/tc"
)

// legKey identifies one memoizable leg computation: the site it ran on,
// the resolved concrete engine (tcq's planner resolves auto before
// execution, so every entry is keyed by what actually ran) and the
// leg's one source. A leg table is a function of these three alone: a
// site's search graph is its fragment plus the complementary tables of
// its disconnection sets, and dsa.Store.Apply builds a new *dsa.Site
// whenever either changes while carrying every other site over by
// pointer. So a key names one table whatever generation the reader
// pinned, and a rebuilt site can never hit its predecessor's tables.
// The key holds the site strongly, so its address cannot be reused
// while an entry names it.
//
// Only the one-source legs a site's border tables cannot answer get
// here (see executeLegLocal, which holds the rules): legs from a source
// off the border on an asymmetric site or to a target off it too,
// whoever asks. The exit set is deliberately absent — the assembly
// folds a leg's exit block, which dsa.SelectExits gathers from the
// table for any exit set — so queries from one source to different
// targets share entries, and a key's entry is one source's whole row
// or, after a same-fragment leg's first miss, a mark without one. The
// mode is likewise absent because a leg's table depends only on the
// engine, letting cost and connectivity traffic share entries.
type legKey struct {
	site   *dsa.Site
	engine dsa.Engine
	source graph.NodeID
}

// CacheStats is a point-in-time snapshot of the leg-result cache.
type CacheStats struct {
	// Capacity is the configured entry bound (0 = caching disabled).
	Capacity int `json:"capacity"`
	// Entries is the current number of cached leg tables.
	Entries int `json:"entries"`
	// Bytes is what the cached entries hold: each table's cells and
	// row ids at 8 B apiece, its header and a fixed entry overhead. The
	// tables' columns are their sites' and are not counted.
	Bytes int64 `json:"bytes"`
	// Hits and Misses count lookups since the server started.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Invalidated counts entries a sweep dropped because their site is
	// no longer the current one of its ID; Retained counts entries a
	// sweep kept because their site still is.
	Invalidated uint64 `json:"invalidated"`
	Retained    uint64 `json:"retained"`
	// Sweeps counts sweep passes (one per applied batch).
	Sweeps uint64 `json:"sweeps"`
}

// cacheEntry is one cache key's entry: the source's whole row (the
// leg table of ExecuteLegTableCtx) and its stats, handed to every leg
// from the same source on the site, as is; or, with no table, the mark
// legCache.mark leaves, which answers no leg and tells get's caller
// that the key was seen.
type cacheEntry struct {
	key   legKey
	table *tc.CostMatrix
	stats tc.Stats
}

// entryOverhead is what an entry costs besides its table: the entry
// itself, its list element and its map slot.
const entryOverhead = 160

// bytes is the entry's share of CacheStats.Bytes: its table's, if it
// has one, and the overhead.
func (e *cacheEntry) bytes() int64 {
	if e.table == nil {
		return entryOverhead
	}
	return int64(e.table.Bytes() + entryOverhead)
}

// legCache is a bounded LRU over leg computations. It is safe for
// concurrent use.
type legCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[legKey]*list.Element
	stats CacheStats
}

func newLegCache(capacity int) *legCache {
	if capacity < 0 {
		capacity = 0
	}
	return &legCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[legKey]*list.Element),
		stats: CacheStats{Capacity: capacity},
	}
}

// get returns the memoized table for key, nil if its entry has none
// or there is no entry, and whether key has an entry at all. A table
// is a hit, promoted; no table is a miss.
func (c *legCache) get(key legKey) (table *tc.CostMatrix, stats tc.Stats, held bool) {
	if c == nil || c.cap == 0 {
		return nil, tc.Stats{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, held := c.byKey[key]
	if !held || el.Value.(*cacheEntry).table == nil {
		c.stats.Misses++
		return nil, tc.Stats{}, held
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	ent := el.Value.(*cacheEntry)
	return ent.table, ent.stats, true
}

// put memoizes a leg computation, evicting the least recently used
// entry when the bound is exceeded. A put for a key already cached
// follows a miss on a table-less entry, or races another query's put
// for the same key; it replaces the entry either way, since one key's
// table is the same whoever computed it.
func (c *legCache) put(key legKey, table *tc.CostMatrix, stats tc.Stats) {
	c.insert(&cacheEntry{key: key, table: table, stats: stats})
}

// mark leaves a table-less entry for key, unless it has an entry: the
// key's first miss was answered without a row, and its next miss will
// cache one. It counts no lookup.
func (c *legCache) mark(key legKey) {
	c.insert(&cacheEntry{key: key})
}

// insert is put and mark: ent takes a new key's slot, and replaces an
// existing entry only with a table.
func (c *legCache) insert(ent *cacheEntry) {
	if c == nil || c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[ent.key]; ok {
		c.ll.MoveToFront(el)
		if ent.table != nil {
			c.stats.Bytes += ent.bytes() - el.Value.(*cacheEntry).bytes()
			el.Value = ent
		}
		return
	}
	c.stats.Bytes += ent.bytes()
	c.byKey[ent.key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.cap {
		c.remove(c.ll.Back())
		c.stats.Evictions++
	}
}

// remove drops one entry. The caller holds mu.
func (c *legCache) remove(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.byKey, ent.key)
	c.stats.Bytes -= ent.bytes()
}

// sweep drops every entry whose site is not sites[site.ID] — a site an
// applied batch rebuilt, so no current reader can name it — and keeps
// the rest. Stale tables are unreachable by key alone; the sweep only
// frees them (and the superseded sites the keys hold) without waiting
// for LRU pressure, so skipping or reordering it cannot change an
// answer.
func (c *legCache) sweep(sites []*dsa.Site) {
	if c == nil || c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Sweeps++
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		site := el.Value.(*cacheEntry).key.site
		if sites[site.ID] == site {
			c.stats.Retained++
			continue
		}
		c.remove(el)
		c.stats.Invalidated++
	}
}

// snapshot returns a value copy of the current counters taken under
// the cache lock — the only way /stats and the /metrics collectors may
// read them, since get/put/sweep mutate the same struct under mu
// (TestLegCacheSnapshotRace is the -race proof).
func (c *legCache) snapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
