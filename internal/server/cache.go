package server

import (
	"container/list"
	"strconv"
	"sync"

	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// legKey identifies one memoizable leg computation: the site it ran on,
// the resolved concrete engine (tcq's planner resolves auto before
// execution, so every entry is keyed by what actually ran) and the
// rendered entry set (sorted by the planner, so the rendering is
// canonical). A leg table is a function of these three alone: a site's
// search graph is its fragment plus the complementary tables of its
// disconnection sets, and dsa.Store.Apply builds a new *dsa.Site
// whenever either changes while carrying every other site over by
// pointer. So a key names one table whatever generation the reader
// pinned, and a rebuilt site can never hit its predecessor's tables.
// The key holds the site strongly, so its address cannot be reused
// while an entry names it.
//
// The exit set is deliberately absent — the assembly fold selects a
// leg's exits in place (dsa.FinishPlan: the cached table is sorted by
// dst, so an exit costs two binary searches and the rows it reads,
// whatever the table's size), so queries with different targets share
// entries whenever they enter a fragment through the same disconnection
// set; the mode is likewise absent because a leg's full fact relation
// depends only on the engine, letting cost and connectivity traffic
// share entries.
type legKey struct {
	site   *dsa.Site
	engine dsa.Engine
	entry  string
}

func newLegKey(site *dsa.Site, entry []graph.NodeID, engine dsa.Engine) legKey {
	b := make([]byte, 0, 8*len(entry))
	for _, n := range entry {
		b = append(strconv.AppendInt(b, int64(n), 10), ',')
	}
	return legKey{site: site, engine: engine, entry: string(b)}
}

// CacheStats is a point-in-time snapshot of the leg-result cache.
type CacheStats struct {
	// Capacity is the configured entry bound (0 = caching disabled).
	Capacity int `json:"capacity"`
	// Entries is the current number of cached leg relations.
	Entries int `json:"entries"`
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

// cacheEntry is one memoized leg: the leg table of ExecuteLegFullCtx
// and its stats. The table (dsa.NewLegTable: sorted by dst and marked
// so, which is all the index the selection needs — the entry holds no
// side structure) is handed to every query that enters the site through
// the same entry set, as is; the assembly fold binary-searches it and
// reads its exits' rows, never writing to it.
type cacheEntry struct {
	key   legKey
	rel   *relation.Relation
	stats tc.Stats
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

// get returns the memoized relation for key if present.
func (c *legCache) get(key legKey) (*relation.Relation, tc.Stats, bool) {
	if c == nil || c.cap == 0 {
		return nil, tc.Stats{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.stats.Misses++
		return nil, tc.Stats{}, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	ent := el.Value.(*cacheEntry)
	return ent.rel, ent.stats, true
}

// put memoizes a leg computation, evicting the least recently used
// entry when the bound is exceeded. Concurrent queries can race to fill
// the same key; the same key means the same table, so the last put
// simply replaces the entry.
func (c *legCache) put(key legKey, rel *relation.Relation, stats tc.Stats) {
	if c == nil || c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := &cacheEntry{key: key, rel: rel, stats: stats}
	if el, ok := c.byKey[key]; ok {
		el.Value = ent
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
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
		c.ll.Remove(el)
		delete(c.byKey, el.Value.(*cacheEntry).key)
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
