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
// nodes (ExecuteLegTableCtx from Site.border), with the index arrays a
// gather reads it through and the memoized blocks of its transit legs.
type borderTable struct {
	m *tc.CostMatrix
	// row[p] is m's row of border[p]; -1 where m has none, as a
	// semi-naive table lists only sources with facts.
	row []int32
	// col[k] is m's column of the CSR's node k; -1 where m has none, as
	// a semi-naive table lists only destinations with facts.
	col []int32
	// transit[i*len(dss)+j] is the block of the leg entered through the
	// site's dss[i] and left through dss[j], gathered by its first
	// reader.
	transit []atomic.Pointer[ExitBlock]
}

// bytes is what the table holds: its matrix, its index arrays at 4 B
// per entry and its memoized blocks.
func (t *borderTable) bytes() int64 {
	n := int64(t.m.Bytes() + 4*len(t.row) + 4*len(t.col) + 8*len(t.transit))
	for i := range t.transit {
		if b := t.transit[i].Load(); b != nil {
			n += int64(b.bytes())
		}
	}
	return n
}

// TableBytes is what the site's built border tables hold, over every
// engine: matrices, index arrays and memoized transit blocks.
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

// buildBorderTable runs the engine from every border node and indexes
// the table it returns.
func (s *Site) buildBorderTable(ctx context.Context, engine Engine) (*borderTable, error) {
	m, _, err := s.legTable(ctx, s.border, engine)
	if err != nil {
		return nil, err
	}
	c := s.csr()
	t := &borderTable{
		m:       m,
		row:     make([]int32, len(s.border)),
		col:     make([]int32, len(c.IDs)),
		transit: make([]atomic.Pointer[ExitBlock], len(s.dss)*len(s.dss)),
	}
	for i := range t.row {
		t.row[i] = -1
	}
	for r, id := range m.Rows {
		if p, ok := slices.BinarySearch(s.border, id); ok {
			t.row[p] = int32(r)
		}
	}
	for i := range t.col {
		t.col[i] = -1
	}
	for j, id := range m.Cols {
		if k, ok := c.Row(id); ok {
			t.col[k] = int32(j)
		}
	}
	return t, nil
}

// isSymmetric reports, proving it on first use, that the site's
// augmented graph is symmetric with no negative weight: then every
// engine's d(s, b) equals its d(b, s), and a first leg's block is a
// column of the border table.
func (s *Site) isSymmetric() bool {
	s.symOnce.Do(func() { s.symmetric = symmetricCSR(s.csr()) })
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

// borderPositions returns the positions in border of nodes, which must
// be strictly ascending (a disconnection set, or a single node), and
// whether every one of them is a border node.
func borderPositions(border, nodes []graph.NodeID) ([]int, bool) {
	var at []int
	p := 0
	for i, x := range nodes {
		if i > 0 && nodes[i-1] >= x {
			return nil, false
		}
		for p < len(border) && border[p] < x {
			p++
		}
		if p == len(border) || border[p] != x {
			return nil, false
		}
		if at == nil {
			at = make([]int, 0, len(nodes))
		}
		at = append(at, p)
	}
	return at, true
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
	transit := i >= 0 && j >= 0
	var at []int
	column := false
	if !transit {
		var rows bool
		if at, rows = borderPositions(site.border, leg.Entry); !rows {
			if len(leg.Entry) != 1 || !site.isSymmetric() {
				return nil, false, nil
			}
			if at, column = borderPositions(site.border, leg.Exit); !column {
				return nil, false, nil
			}
		}
	}
	t, built, err := site.tableFor(ctx, engine)
	switch {
	case err != nil:
		return nil, false, err
	case column:
		return t.columnBlock(site, leg, at, engine), built, nil
	case !transit:
		return t.rowBlock(site, leg, at), built, nil
	}
	slot := &t.transit[i*len(site.dss)+j]
	if b := slot.Load(); b != nil {
		return b, built, nil
	}
	at, _ = borderPositions(site.border, leg.Entry)
	b := t.rowBlock(site, leg, at)
	if !slot.CompareAndSwap(nil, b) {
		b = slot.Load()
	}
	return b, built, nil
}

// rowBlock gathers the block of a leg whose entry nodes are the border
// nodes at positions at: the table's rows of them, in the table's
// order (a leg table's, since each row is computed alone), by the leg's
// distinct exits.
func (t *borderTable) rowBlock(site *Site, leg Leg, at []int) *ExitBlock {
	c := site.csr()
	exits := distinctExits(leg.Exit)
	cols := make([]int32, len(exits))
	for j, x := range exits {
		cols[j] = -1
		if k, ok := c.Row(x); ok {
			cols[j] = t.col[k]
		}
	}
	rows := make([]int32, 0, len(at))
	for _, p := range at {
		if r := t.row[p]; r >= 0 {
			rows = append(rows, r)
		}
	}
	slices.Sort(rows)
	b := &ExitBlock{rows: leg.Entry, exits: exits, zero: make([]bool, len(exits))}
	for i, r := range rows {
		if i >= len(leg.Entry) || t.m.Rows[r] != leg.Entry[i] {
			b.rows = make([]graph.NodeID, len(rows))
			for i, r := range rows {
				b.rows[i] = t.m.Rows[r]
			}
			break
		}
	}
	b.rows = b.rows[:len(rows):len(rows)]
	b.gather(t.m, rows, cols, leg.Entry)
	return b
}

// columnBlock gathers the block of a first leg on a symmetric site,
// whose exits are the border nodes at positions at: its source's row
// is the source's column of the table, d(s, b) read as d(b, s). The
// leg's table has that row when the engine writes one for every
// present source, and for the semi-naive engine when the source has an
// out-edge; an exit without a row of its own reads +Inf.
func (t *borderTable) columnBlock(site *Site, leg Leg, at []int, engine Engine) *ExitBlock {
	c := site.csr()
	exits := leg.Exit
	b := &ExitBlock{exits: exits, zero: make([]bool, len(exits))}
	if k, ok := c.Row(leg.Entry[0]); ok && (engine != EngineSemiNaive || c.Off[k+1] > c.Off[k]) {
		b.rows, b.cost = leg.Entry, make([]float64, len(exits))
		width, inf, col := len(t.m.Cols), math.Inf(1), t.col[k]
		for j, p := range at {
			v := inf
			if r := t.row[p]; r >= 0 && col >= 0 {
				v = t.m.Cost[int(r)*width+int(col)]
			}
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
