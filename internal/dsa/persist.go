package dsa

import (
	"context"
	"fmt"

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
// disconnection set, the k-th that of the fragmentation's k-th
// disconnection pair. The slice and its tables are the store's own,
// shared with the sites (each DS is deployed at both member sites) and
// with the stores applied from this one; treat them as read-only.
func (st *Store) CompTables() []*CompInfo { return st.comp }

// Restore rebuilds a deployed Store from previously computed parts: a
// fragmentation, the complementary tables, the build options, and the
// epoch and preprocessing report the snapshot carried. It runs no
// global searches — sites are reconstructed from the fragments and the
// given tables (deploySites) — so restoring is O(per-site subgraph
// construction), not O(preprocessing).
//
// comp must hold one table per disconnection set, in
// fr.DisconnectionPairs order — sites pair the k-th table with the k-th
// set — and a list that does not is refused. The caller vouches that
// each table is sorted by (From, To) and prices pairs of its own set,
// and keeps its hands off comp afterwards (the snapshot loader checks
// all of it against the fragmentation it decoded).
func Restore(fr *fragment.Fragmentation, comp []*CompInfo, opt Options, epoch uint64, prep PreprocessStats) (*Store, error) {
	if err := checkOptions(fr, opt); err != nil {
		return nil, err
	}
	pairs := fr.DisconnectionPairs()
	if len(comp) != len(pairs) {
		return nil, fmt.Errorf("dsa: %d complementary tables for %d disconnection sets", len(comp), len(pairs))
	}
	for k, ci := range comp {
		if ci.Pair != pairs[k] {
			return nil, fmt.Errorf("dsa: complementary table %d is %d-%d's, not %d-%d's", k, ci.Pair.I, ci.Pair.J, pairs[k].I, pairs[k].J)
		}
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
	st.compMaxCost, st.compAllPairs, _ = compBounds(fr, comp)
	return st, nil
}
