package dsa

import (
	"context"

	"repro/internal/fragment"
)

// This file is the persistence seam of the planner: the accessors and
// the trusted constructor the binary snapshot store (internal/store)
// needs to serialize a built Store and rebuild it on cold start
// without re-running the global preprocessing searches — the whole
// point of a snapshot is that computeComp's Dijkstra/BFS fan-out, the
// dominant cost of Build, is already paid and its result (the
// complementary tables) is small and serializable.

// MaxChains returns the chain-enumeration bound the store was built
// with (0 = unlimited).
func (st *Store) MaxChains() int { return st.maxChains }

// CompTables returns the complementary tables of every non-empty
// disconnection set, keyed by the normalised pair. The map and its
// tables are the store's own, shared with the sites (each DS is
// deployed at both member sites) and with the stores applied from this
// one; treat them as read-only.
func (st *Store) CompTables() map[fragment.Pair]*CompInfo { return st.comp }

// Restore rebuilds a deployed Store from previously computed parts: a
// fragmentation, the complementary tables, the build options, and the
// epoch and preprocessing report the snapshot carried. It runs no
// global searches — sites are reconstructed from the fragments and the
// given tables (deploySites) — so restoring is O(per-site subgraph
// construction), not O(preprocessing).
//
// The caller vouches that comp matches the fragmentation — one table
// per disconnection set, sorted by (From, To) — and keeps its hands off
// it afterwards (the snapshot loader checks both against the
// fragmentation it decoded).
func Restore(fr *fragment.Fragmentation, comp map[fragment.Pair]*CompInfo, opt Options, epoch uint64, prep PreprocessStats) (*Store, error) {
	if err := checkOptions(fr, opt); err != nil {
		return nil, err
	}
	st := &Store{
		fr:        fr,
		maxChains: opt.MaxChains,
		problem:   opt.Problem,
		epoch:     epoch,
		prep:      prep,
		comp:      comp,
	}
	var err error
	if st.sites, err = deploySites(context.Background(), fr, comp, nil, nil); err != nil {
		return nil, err
	}
	st.compMaxCost, st.compAllPairs, _ = compBounds(fr.DisconnectionSets(), comp)
	return st, nil
}
