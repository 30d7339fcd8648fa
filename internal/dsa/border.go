package dsa

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/tc"
)

// This file is the site's own answer to a leg between its border
// nodes and any node of it. Every distance such a leg needs depends on
// its site alone: a leg entered through border nodes — a disconnection
// set, or a source in two fragments — reads the rows d(b, ·) of its
// entry nodes b, and a one-source leg on a site whose augmented graph
// is symmetric reads d(s, b) = d(b, s) for its exits b. These are rows
// and columns of one table per site and engine, from all of the site's
// border nodes — the union of its disconnection sets, whose pairwise
// distances §2.1 already materialises as complementary information,
// and HEPV's per-fragment border table (Jing, Huang & Rundensteiner,
// TKDE 1998). The first reader that needs a table builds it; every
// later leg on the site gathers its exit block out of it instead of
// running a kernel. A site Apply rebuilds starts without tables, and a
// site it shares keeps them.

// tableSlot holds one engine's border table of a site, or the build
// running for it.
type tableSlot struct {
	table atomic.Pointer[borderTable]
	mu    sync.Mutex
	// building is closed when the running build ends; nil when none
	// runs.
	building chan struct{}
}

// borderTable is one engine's leg table from all of a site's border
// nodes (ExecuteLegTableCtx from Site.border), in every leg table's
// shape — row p is border[p], column k is the CSR's node k — beside the
// memoized blocks of its transit legs.
type borderTable struct {
	m *tc.CostMatrix
	// transit[i*len(dss)+j] is the block of the leg entered through the
	// site's dss[i] and left through dss[j], gathered by its first
	// reader.
	transit []atomic.Pointer[ExitBlock]
}

// bytes is what the table holds: its matrix and its memoized blocks.
func (t *borderTable) bytes() int64 {
	n := int64(t.m.Bytes() + 8*len(t.transit))
	for i := range t.transit {
		if b := t.transit[i].Load(); b != nil {
			n += int64(b.bytes())
		}
	}
	return n
}

// TableBytes is what the site's built border tables hold, over every
// engine: matrices and memoized transit blocks.
func (s *Site) TableBytes() int64 {
	var n int64
	for i := range s.tables {
		if t := s.tables[i].table.Load(); t != nil {
			n += t.bytes()
		}
	}
	return n
}

// tableFor returns the site's border table for engine, building it if
// no reader has; built reports that this call built it. Concurrent
// first readers wait for the one build, each until its own ctx ends. A
// failed or canceled build leaves the slot empty, and the next reader
// builds the table.
func (s *Site) tableFor(ctx context.Context, engine Engine) (t *borderTable, built bool, err error) {
	slot := &s.tables[engine]
	for {
		if t := slot.table.Load(); t != nil {
			return t, false, nil
		}
		slot.mu.Lock()
		if t := slot.table.Load(); t != nil {
			slot.mu.Unlock()
			return t, false, nil
		}
		if wait := slot.building; wait != nil {
			slot.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return nil, false, canceledErr(ctx)
			}
		}
		done := make(chan struct{})
		slot.building = done
		slot.mu.Unlock()
		func() {
			defer func() {
				slot.mu.Lock()
				if err == nil {
					slot.table.Store(t)
				}
				slot.building = nil
				slot.mu.Unlock()
				close(done)
			}()
			t, err = s.buildBorderTable(ctx, engine)
		}()
		return t, err == nil, err
	}
}

// buildBorderTable runs the engine from every border node. Each border
// node is a node of the site, so the table has a row for each.
func (s *Site) buildBorderTable(ctx context.Context, engine Engine) (*borderTable, error) {
	m, _, err := s.legTable(ctx, s.border, engine)
	if err != nil {
		return nil, err
	}
	if len(m.Rows) != len(s.border) {
		return nil, fmt.Errorf("dsa: site %d: border table has %d rows for %d border nodes", s.ID, len(m.Rows), len(s.border))
	}
	return &borderTable{m: m, transit: make([]atomic.Pointer[ExitBlock], len(s.dss)*len(s.dss))}, nil
}

// isSymmetric reports, proving it on first use, that the site's
// augmented graph is symmetric with no negative weight: then every
// engine's d(s, b) equals its d(b, s), and a first leg's block is a
// column of the border table.
func (s *Site) isSymmetric() bool {
	s.symOnce.Do(func() { s.symmetric = symmetricCSR(s.csr) })
	return s.symmetric
}

// symmetricCSR reports whether every edge u→v of c has no negative
// weight and the least weight of u→v equals the least weight of v→u.
func symmetricCSR(c *graph.CSR) bool {
	least := func(u, v int32) float64 {
		w := math.Inf(1)
		for i := c.Off[u]; i < c.Off[u+1]; i++ {
			if c.To[i] == v {
				w = min(w, c.W[i])
			}
		}
		return w
	}
	for u := range int32(len(c.IDs)) {
		for i := c.Off[u]; i < c.Off[u+1]; i++ {
			if v := c.To[i]; c.W[i] < 0 || least(u, v) != least(v, u) {
				return false
			}
		}
	}
	return true
}

// onBorder reports whether nodes, strictly ascending (a disconnection
// set, or a single node), are all border nodes.
func onBorder(border, nodes []graph.NodeID) bool {
	p := 0
	for i, x := range nodes {
		if i > 0 && nodes[i-1] >= x {
			return false
		}
		for p < len(border) && border[p] < x {
			p++
		}
		if p == len(border) || border[p] != x {
			return false
		}
	}
	return true
}

// borderPositions returns the positions in border of nodes, which
// onBorder holds of.
func borderPositions(border, nodes []graph.NodeID) []int32 {
	at := make([]int32, 0, len(nodes))
	p := 0
	for _, x := range nodes {
		for border[p] < x {
			p++
		}
		at = append(at, int32(p))
	}
	return at
}

// dsIndex returns the index of nodes among the site's disconnection
// sets, -1 when it is none of them.
func (s *Site) dsIndex(nodes []graph.NodeID) int {
	for i, ds := range s.dss {
		if len(ds) == len(nodes) && (len(ds) == 0 || &ds[0] == &nodes[0] || slices.Equal(ds, nodes)) {
			return i
		}
	}
	return -1
}

// BorderBlockCtx is a leg answered from its site's border table for
// engine: its exit block, gathered from the table's cells instead of
// computed by a kernel. A leg whose entry nodes are all border nodes —
// a leg entered through a disconnection set, or from a source in two
// fragments — gathers its entry rows; a one-source leg on a symmetric
// site whose exits are all border nodes gathers its source's column.
// The block is SelectExits(ExecuteLegTableCtx(…), leg) — rows, exits,
// zero-cost flags and fact count equal; the cells of a row gather
// bit-equal, and those of a column gather the same costs summed along
// the reversed path. A leg entered and left through two of the site's
// disconnection sets gets the one block its first reader memoized on
// the table.
//
// Entry and exit sets are read as given, sorted and distinct; a leg the
// tables cannot answer — any other shape, such as a one-source leg off
// the border on an asymmetric site — returns a nil block and no error,
// and builds nothing. built reports that this call built the site's
// table (the work a read saves is the kernel's). The build observes
// ctx, and a reader canceled while it waits for another's build
// returns ErrCanceled.
func (st *Store) BorderBlockCtx(ctx context.Context, leg Leg, engine Engine) (block *ExitBlock, built bool, err error) {
	if !ValidEngine(engine) {
		return nil, false, fmt.Errorf("dsa: %w %d", ErrUnknownEngine, engine)
	}
	if leg.SiteID < 0 || leg.SiteID >= len(st.sites) {
		return nil, false, fmt.Errorf("dsa: %w: leg site %d out of range", ErrUnknownSite, leg.SiteID)
	}
	site := st.sites[leg.SiteID]
	i, j := site.dsIndex(leg.Entry), site.dsIndex(leg.Exit)
	column := false
	switch {
	case i >= 0 && j >= 0, onBorder(site.border, leg.Entry):
	case len(leg.Entry) == 1 && site.isSymmetric() && onBorder(site.border, leg.Exit):
		column = true
	default:
		return nil, false, nil
	}
	t, built, err := site.tableFor(ctx, engine)
	switch {
	case err != nil:
		return nil, false, err
	case column:
		return t.columnBlock(site, leg, borderPositions(site.border, leg.Exit)), built, nil
	case i < 0 || j < 0:
		return t.rowBlock(site, leg, borderPositions(site.border, leg.Entry)), built, nil
	}
	slot := &t.transit[i*len(site.dss)+j]
	if b := slot.Load(); b != nil {
		return b, built, nil
	}
	b := t.rowBlock(site, leg, borderPositions(site.border, leg.Entry))
	if !slot.CompareAndSwap(nil, b) {
		b = slot.Load()
	}
	return b, built, nil
}

// GoalBlockCtx is a same-fragment leg — one source on the site, its
// target the one exit, off the border — answered by one search toward
// the target (tc.DenseGraph.CostBetweenCtx), which stops once the
// target is final and allocates no row. On a symmetric site whose
// dense border table is built, the table's rows are the search's
// landmarks and it settles the nodes toward the target first; on any
// other site it runs with none and settles the nodes cheaper than the
// target. The block is SelectExits(ExecuteLegTableCtx(…), leg), its one
// cell bit-equal. It answers only a dense-engine leg of that shape,
// and builds nothing: any other leg returns a nil block and no error,
// for the caller to run ExecuteLegTableCtx. Stats are the search's. A
// canceled search returns ErrCanceled.
func (st *Store) GoalBlockCtx(ctx context.Context, leg Leg, engine Engine) (*ExitBlock, tc.Stats, error) {
	if engine != EngineDense || leg.SiteID < 0 || leg.SiteID >= len(st.sites) || len(leg.Entry) != 1 || len(leg.Exit) != 1 {
		return nil, tc.Stats{}, nil
	}
	site := st.sites[leg.SiteID]
	if _, ok := site.csr.Row(leg.Entry[0]); !ok || onBorder(site.border, leg.Exit) {
		return nil, tc.Stats{}, nil
	}
	kernel, err := site.DenseKernel()
	if err != nil {
		return nil, tc.Stats{}, err
	}
	var landmarks *tc.CostMatrix
	if t := site.tables[EngineDense].table.Load(); t != nil && site.isSymmetric() {
		landmarks = t.m
	}
	cost, stats, err := kernel.CostBetweenCtx(ctx, leg.Entry[0], leg.Exit[0], landmarks)
	if err != nil {
		return nil, tc.Stats{}, fmt.Errorf("dsa: site %d leg: %w", site.ID, err)
	}
	b := &ExitBlock{rows: leg.Entry, exits: leg.Exit, zero: make([]bool, 1), cost: []float64{cost}}
	if cost != math.Inf(1) {
		b.n = 1
	}
	b.flagZero(leg.Entry)
	return b, stats, nil
}

// rowBlock gathers the block of a leg whose entry nodes are the border
// nodes at positions at: the table's rows of them, which are the leg's
// distinct entry nodes in order, by the leg's distinct exits.
func (t *borderTable) rowBlock(site *Site, leg Leg, at []int32) *ExitBlock {
	c := site.csr
	exits := distinctExits(leg.Exit)
	cols := make([]int32, len(exits))
	for j, x := range exits {
		cols[j] = -1
		if k, ok := c.Row(x); ok {
			cols[j] = k
		}
	}
	b := &ExitBlock{rows: leg.Entry, exits: exits, zero: make([]bool, len(exits))}
	b.gather(t.m, at, cols, leg.Entry)
	return b
}

// columnBlock gathers the block of a first leg on a symmetric site,
// whose exits are the border nodes at positions at: its source's row
// is the source's column of the table, d(s, b) read as d(b, s). The
// leg's table has that row whenever the source is a node of the site.
func (t *borderTable) columnBlock(site *Site, leg Leg, at []int32) *ExitBlock {
	exits := leg.Exit
	b := &ExitBlock{exits: exits, zero: make([]bool, len(exits))}
	if k, ok := site.csr.Row(leg.Entry[0]); ok {
		b.rows, b.cost = leg.Entry, make([]float64, len(exits))
		width, inf := len(t.m.Cols), math.Inf(1)
		for j, p := range at {
			v := t.m.Cost[int(p)*width+int(k)]
			b.cost[j] = v
			if v != inf {
				b.n++
			}
		}
	}
	b.flagZero(leg.Entry)
	return b
}

// flagZero flags and counts each exit that is also an entry node: the
// empty path selects it at cost 0, once whatever entry repeats.
func (b *ExitBlock) flagZero(entry []graph.NodeID) {
	for _, a := range entry {
		if j, ok := slices.BinarySearch(b.exits, a); ok && !b.zero[j] {
			b.zero[j] = true
			b.n++
		}
	}
}
