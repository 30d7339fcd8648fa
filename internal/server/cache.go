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

// legKey identifies one memoizable leg computation under the
// planner's canonical plan: the resolved concrete engine (by canonical
// name — tcq's planner resolves auto before execution, so every cached
// entry is keyed by what actually ran, stable across engine
// renumbering), the site, and the entry set (sorted by the planner, so
// the rendering is canonical). The exit set is deliberately absent —
// the assembly fold selects a leg's exits in place (dsa.FinishPlan: the
// cached table is sorted by dst, so an exit costs two binary searches
// and the rows it reads, whatever the table's size), so queries with
// different targets share cache entries whenever they
// enter a fragment through the same disconnection set; the mode is
// likewise absent because a leg's full fact relation depends only on
// the engine, letting cost and connectivity traffic share entries.
func legKey(siteID int, entry []graph.NodeID, engine dsa.Engine) string {
	b := make([]byte, 0, 24+8*len(entry))
	b = append(append(b, engine.String()...), '|')
	b = append(strconv.AppendInt(b, int64(siteID), 10), '|')
	for _, n := range entry {
		b = append(strconv.AppendInt(b, int64(n), 10), ',')
	}
	return string(b)
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
	// Evictions counts entries dropped by the LRU bound, Expired those
	// dropped because a reader at a newer epoch found them.
	Evictions uint64 `json:"evictions"`
	Expired   uint64 `json:"expired"`
	// Invalidated counts entries dropped eagerly on an update swap
	// because their site was rebuilt; Retained counts entries retagged
	// to the new epoch on a swap because their site was structurally
	// shared (they keep serving hits across the update).
	Invalidated uint64 `json:"invalidated"`
	Retained    uint64 `json:"retained"`
	// Sweeps counts invalidation passes (one per applied batch).
	Sweeps uint64 `json:"sweeps"`
}

// cacheEntry is one memoized leg: the leg table of ExecuteLegFullCtx
// and its stats, tagged with the site it was computed on and the store
// epoch it was computed under. The table (dsa.NewLegTable: sorted by
// dst and marked so, which is all the index the selection needs — the
// entry holds no side structure) is handed to every query that enters
// the site through the same entry set, as is; the assembly fold
// binary-searches it and reads its exits' rows, never writing to it.
type cacheEntry struct {
	key    string
	siteID int
	epoch  uint64
	rel    *relation.Relation
	stats  tc.Stats
}

// legCache is a bounded, epoch-aware LRU over leg computations. It is
// safe for concurrent use.
type legCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
	stats CacheStats
}

func newLegCache(capacity int) *legCache {
	if capacity < 0 {
		capacity = 0
	}
	return &legCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
		stats: CacheStats{Capacity: capacity},
	}
}

// get returns the memoized relation for key if present and computed
// under the given epoch. Entries from older epochs are dropped on
// sight — the store has been updated since they were computed. An
// entry from a newer epoch is a miss that stays: the reader is still
// pinned to an older snapshot, and the entry is the current table.
func (c *legCache) get(key string, epoch uint64) (*relation.Relation, tc.Stats, bool) {
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
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch {
		if ent.epoch < epoch {
			c.ll.Remove(el)
			delete(c.byKey, key)
			c.stats.Expired++
		}
		c.stats.Misses++
		return nil, tc.Stats{}, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return ent.rel, ent.stats, true
}

// put memoizes a leg computation, evicting the least recently used
// entry when the bound is exceeded.
func (c *legCache) put(key string, siteID int, epoch uint64, rel *relation.Relation, stats tc.Stats) {
	if c == nil || c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Concurrent queries can race to fill the same key, and one still
		// running on an older pinned snapshot can finish last: keep the
		// newest epoch's table and refresh recency either way.
		if epoch >= el.Value.(*cacheEntry).epoch {
			el.Value = &cacheEntry{key: key, siteID: siteID, epoch: epoch, rel: rel, stats: stats}
		}
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, siteID: siteID, epoch: epoch, rel: rel, stats: stats})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// invalidate is the eager per-fragment sweep run on every update swap:
// entries computed on a rebuilt site are dropped immediately (no
// lingering until LRU pressure or an epoch-tag miss), while entries on
// structurally shared sites — whose augmented graph is pointer-
// identical across the swap, so their relations are still exact — are
// retagged to the new epoch and keep serving hits. This is what lets
// the leg cache survive single-fragment updates with its working set
// intact.
//
// Only entries tagged with the epoch this swap supersedes (newEpoch-1)
// are eligible for retagging: the sweep's rebuilt-site list describes
// exactly that one transition. An entry put by a query still running
// on an OLDER pinned snapshot may predate intermediate rebuilds of its
// site that this sweep knows nothing about, so anything older is
// dropped — retagging it would revive stale data as current. Entries
// already tagged newEpoch were computed on the new generation and are
// left untouched.
func (c *legCache) invalidate(rebuiltSites []int, newEpoch uint64) {
	if c == nil || c.cap == 0 {
		return
	}
	rebuilt := make(map[int]bool, len(rebuiltSites))
	for _, id := range rebuiltSites {
		rebuilt[id] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Sweeps++
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*cacheEntry)
		switch {
		case ent.epoch == newEpoch:
			// Computed on the generation this sweep announces.
		case ent.epoch == newEpoch-1 && !rebuilt[ent.siteID]:
			ent.epoch = newEpoch
			c.stats.Retained++
		default:
			// Rebuilt site, a lagging put from an older snapshot, or
			// (impossibly, but defensively) a fresher epoch.
			c.ll.Remove(el)
			delete(c.byKey, ent.key)
			c.stats.Invalidated++
		}
	}
}

// snapshot returns a value copy of the current counters taken under
// the cache lock — the only way /stats and the /metrics collectors may
// read them, since get/put/invalidate mutate the same struct under mu
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
