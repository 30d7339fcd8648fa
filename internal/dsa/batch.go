package dsa

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/fragment"
	"repro/internal/graph"
)

// This file is the transactional write path of the disconnection set
// approach: a batch of typed edge operations is validated as a whole
// and applied atomically, producing a NEW immutable Store (copy on
// write) whose cost scales with the fragments the batch touched, not
// with the whole graph. It implements the paper's §2.1 advice — "as
// long as updates are not too frequent, the pre-processing costs may
// be amortized over many queries" — by making one batch pay one
// preprocessing pass, and by rebuilding the site (its CSR: fragment
// edges plus shortcut edges) only of the fragments whose edge sets or
// complementary tables actually changed. Everything else is
// structurally shared with the previous epoch, so a serving layer can
// keep cached per-site results for the shared fragments alive across
// the swap. A fragment whose ops cancel out — its edge set ends the
// batch as it began, as when an edge is inserted and deleted again — is
// untouched too (fragment.Patch.Apply shares it), so its site and
// every table cached on it survive the write. A rebuilt site is new:
// nothing computed on its predecessor is served from it.

// OpKind selects what an EdgeOp does.
type OpKind int

const (
	// OpInsert adds a directed edge to a fragment. Both endpoints must
	// already be nodes of the base graph (growing the node set is a
	// fragmentation *design* problem, §5, not an update).
	OpInsert OpKind = iota
	// OpDelete removes one occurrence of an exactly matching
	// (from, to, weight) edge from a fragment.
	OpDelete
)

// String names the op kind the way the HTTP API spells it.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// EdgeOp is one typed mutation of a deployed fragmentation.
type EdgeOp struct {
	// Kind is OpInsert or OpDelete.
	Kind OpKind
	// Frag is the fragment whose edge set changes.
	Frag int
	// Edge is the edge to insert or delete.
	Edge graph.Edge
}

// String renders the op for error messages.
func (op EdgeOp) String() string {
	return fmt.Sprintf("%s %v->%v w=%g into fragment %d", op.Kind, op.Edge.From, op.Edge.To, op.Edge.Weight, op.Frag)
}

// OpError ties one refused operation to its position in the batch. Err
// wraps the package's typed sentinels (ErrUnknownSite, ErrUnknownNode,
// ErrNegativeWeight, ErrEdgeNotFound, ErrEmptyFragment), so callers
// branch with errors.Is per op.
type OpError struct {
	// Index is the op's position in the batch.
	Index int
	// Op echoes the refused operation.
	Op EdgeOp
	// Err is the typed refusal.
	Err error
}

// Error implements error.
func (e *OpError) Error() string { return fmt.Sprintf("op %d (%s): %v", e.Index, e.Op, e.Err) }

// Unwrap exposes the typed refusal to errors.Is.
func (e *OpError) Unwrap() error { return e.Err }

// BatchError reports a batch refused by validation: every offending op
// with its typed error, and the guarantee that NOTHING was applied —
// batches are atomic. Unwrap returns all per-op errors, so
// errors.Is(err, ErrUnknownNode) works on the batch error whenever any
// op failed for that reason.
type BatchError struct {
	// Ops lists the refused operations in batch order.
	Ops []*OpError
}

// Error implements error.
func (e *BatchError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dsa: batch refused (%d bad op(s), nothing applied): ", len(e.Ops))
	for i, oe := range e.Ops {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(oe.Error())
	}
	return sb.String()
}

// Unwrap exposes the per-op errors to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	errs := make([]error, len(e.Ops))
	for i, oe := range e.Ops {
		errs[i] = oe
	}
	return errs
}

// BatchStats reports the cost of one applied batch — the paper's
// "careful treatment of updates" made measurable, so callers can see
// that the work scaled with the touched fragments.
type BatchStats struct {
	// Ops is the number of operations the batch applied.
	Ops int
	// RecomputedSets is the number of disconnection sets whose
	// complementary information was recomputed (all non-empty sets: any
	// edge change can move a global shortest path).
	RecomputedSets int
	// DijkstraRuns is the number of global single-source searches the
	// recomputation triggered.
	DijkstraRuns int
	// SitesRebuilt lists the fragments that were re-preprocessed —
	// their edge set changed, or a complementary table they hold did.
	SitesRebuilt []int
	// SitesShared is the number of sites structurally shared with the
	// previous epoch: their CSR and whatever was derived from it (kernel
	// wrapper, edge relation, border tables) carry over untouched.
	SitesShared int
	// LocalOnly reports that the update stayed within sites (no
	// disconnection sets exist, so no complementary information could
	// have changed).
	LocalOnly bool
}

// Apply validates ops as a whole and, if every op is admissible,
// applies them atomically, returning a NEW store at epoch+1. The
// receiver is never modified: readers holding it keep a consistent
// pre-batch view (copy-on-write snapshot semantics), and the two
// stores structurally share everything the batch did not disturb —
// sites, fragments, the node table, the membership table and the
// disconnection-set table.
//
// Ops are validated in order against the progressively updated edge
// sets, so a batch may delete an edge an earlier op of the same batch
// inserted. On any refusal the returned error is a *BatchError listing
// every offending op with a typed per-op error, and nothing is
// applied.
//
// Cost: what a batch pays is the touched fragments (a private sorted
// copy of each one's edge set and node set, fragment.Patch), plus the
// touched sites (the CSR of every fragment whose edge set or
// complementary tables changed, filled in one pass from its edges and
// its tables' edges). Nothing is proportional to V or E: untouched
// edge sets are never copied and the partition is not re-validated,
// because each op edits exactly one edge set, the only place the
// fragmentation keeps edges. On top of that come the global searches when
// the complementary tables must be recomputed — an edge change anywhere
// can move a global shortest path between disconnection-set nodes —
// unless compUnaffected proves otherwise, and one derivation of the
// disconnection sets when an op gave a node its first edge in a
// fragment or took its last. ctx is observed between the global
// searches; a canceled apply returns ErrCanceled with nothing applied.
func (st *Store) Apply(ctx context.Context, ops []EdgeOp) (*Store, BatchStats, error) {
	stats := BatchStats{Ops: len(ops)}
	if len(ops) == 0 {
		return nil, stats, fmt.Errorf("dsa: %w", ErrEmptyBatch)
	}
	n := st.fr.NumFragments()

	// Phase 1: validate every op against the working edge sets,
	// collecting all refusals rather than stopping at the first — the
	// caller (e.g. the HTTP batch endpoint) reports them per op.
	patch := st.fr.NewPatch()
	var opErrs []*OpError
	refuse := func(i int, op EdgeOp, err error) {
		opErrs = append(opErrs, &OpError{Index: i, Op: op, Err: err})
	}
	for i, op := range ops {
		if op.Frag < 0 || op.Frag >= n {
			refuse(i, op, fmt.Errorf("dsa: %w: fragment %d out of range", ErrUnknownSite, op.Frag))
			continue
		}
		switch op.Kind {
		case OpInsert:
			if !st.fr.HasNode(op.Edge.From) || !st.fr.HasNode(op.Edge.To) {
				refuse(i, op, fmt.Errorf("dsa: %w: edge %v endpoints must be existing nodes", ErrUnknownNode, op.Edge))
				continue
			}
			if op.Edge.Weight < 0 {
				refuse(i, op, fmt.Errorf("dsa: %w %v", ErrNegativeWeight, op.Edge.Weight))
				continue
			}
			patch.Insert(op.Frag, op.Edge)
		case OpDelete:
			if !patch.Contains(op.Frag, op.Edge) {
				refuse(i, op, fmt.Errorf("dsa: %w: edge %v not in fragment %d", ErrEdgeNotFound, op.Edge, op.Frag))
				continue
			}
			if patch.Size(op.Frag) == 1 {
				refuse(i, op, fmt.Errorf("dsa: %w: deleting %v would empty fragment %d", ErrEmptyFragment, op.Edge, op.Frag))
				continue
			}
			patch.Delete(op.Frag, op.Edge)
		default:
			refuse(i, op, fmt.Errorf("dsa: unknown op kind %d (want OpInsert or OpDelete)", int(op.Kind)))
		}
	}
	if len(opErrs) > 0 {
		return nil, stats, &BatchError{Ops: opErrs}
	}

	// Phase 2: patch the fragmentation (the node table is invariant —
	// inserts require existing endpoints, deletes never drop nodes).
	fr, err := patch.Apply()
	if err != nil {
		return nil, stats, err
	}

	// Phase 3: refresh the complementary information. The general case
	// recomputes it globally — any edge change can move a global
	// shortest path between disconnection-set nodes. But a batch whose
	// edges are provably irrelevant to every complementary table (see
	// compUnaffected) skips the global searches entirely, making the
	// update's cost scale with the touched fragments instead of the
	// graph.
	nsets := len(fr.DisconnectionSets())
	next := &Store{
		fr:        fr,
		problem:   st.problem,
		maxChains: st.maxChains,
		epoch:     st.epoch + 1,
	}
	next.prep = PreprocessStats{DisconnectionSets: nsets}
	// Ops on a fragment whose edits cancelled out changed no edge.
	changed := slices.DeleteFunc(slices.Clone(ops), func(op EdgeOp) bool { return !patch.Touched(op.Frag) })
	if st.compUnaffected(changed, fr) {
		next.comp = st.comp
		next.compMaxCost, next.compAllPairs, next.prep.PairsStored = st.compMaxCost, st.compAllPairs, st.prep.PairsStored
	} else {
		next.comp, stats.DijkstraRuns, err = computeComp(ctx, fr, st.problem)
		if err != nil {
			return nil, stats, err
		}
		next.compMaxCost, next.compAllPairs, next.prep.PairsStored = compBounds(fr, next.comp)
		next.prep.DijkstraRuns = stats.DijkstraRuns
		stats.RecomputedSets = nsets
	}
	stats.LocalOnly = nsets == 0

	// Phase 4: assemble the next store, sharing every site whose edge
	// set AND complementary tables are unchanged (deploySites).
	if next.sites, err = deploySites(ctx, fr, next.comp, st.sites, patch.Touched); err != nil {
		return nil, stats, err
	}
	for id, site := range next.sites {
		if site != st.sites[id] {
			stats.SitesRebuilt = append(stats.SitesRebuilt, id)
		}
	}
	stats.SitesShared = len(next.sites) - len(stats.SitesRebuilt)
	return next, stats, nil
}

// compUnaffected reports whether the batch provably leaves every
// complementary table byte-identical, so the global searches can be
// skipped. The proof obligations, checked conservatively:
//
//   - The disconnection sets themselves are unchanged (same pairs,
//     same node sets) — otherwise new tables would be needed.
//   - For a shortest-path store, every op's edge weight strictly
//     exceeds every finite complementary cost. A path through such an
//     edge costs more than any current optimum, so an insert can never
//     improve a stored cost, and no global shortest path can have used
//     a deleted edge (it would have cost at least the edge's weight).
//   - For inserts, every ordered pair of every disconnection set
//     already has a stored cost — otherwise the new edge might connect
//     a currently unreachable pair, which no weight bound rules out.
//     On a reachability store this is the ONLY insert obligation
//     (weights are meaningless there: any edge adds reachability, and
//     full tables mean there is nothing left to add).
//   - A reachability store never fast-paths deletes: its tables carry
//     presence, not costs, so no weight bound can prove a deleted edge
//     was not the last connection between two border nodes.
//
// Any failed obligation falls back to the full recomputation; the
// fast path is an optimisation, never a semantic change (the
// incremental-vs-fresh-build property tests cover both routes). The
// two facts about the current tables the obligations need — the
// largest stored cost and whether every ordered pair has one — are the
// store's compMaxCost and compAllPairs, computed with the tables.
func (st *Store) compUnaffected(ops []EdgeOp, next *fragment.Fragmentation) bool {
	if !next.SameDisconnectionSets(st.fr) {
		return false
	}
	for _, op := range ops {
		switch {
		case op.Kind == OpInsert:
			if !st.compAllPairs {
				return false
			}
			if st.problem == ProblemShortestPath && op.Edge.Weight <= st.compMaxCost {
				return false
			}
		case st.problem != ProblemShortestPath:
			return false // reachability delete: no safe bound
		case op.Edge.Weight <= st.compMaxCost:
			return false
		}
	}
	return true
}

// compBounds returns what a store records about its complementary
// tables — comp[k] that of fr's k-th disconnection set: the largest
// cost any of them stores, whether every table has a cost for every
// ordered pair of its disconnection set, and the PairsStored total
// (each table is deployed at both member sites).
func compBounds(fr *fragment.Fragmentation, comp []*CompInfo) (maxCost float64, allPairs bool, pairsStored int) {
	allPairs = true
	for k, ci := range comp {
		n := len(fr.DisconnectionSets()[k])
		if len(ci.Cost) != n*(n-1) {
			allPairs = false
		}
		for _, e := range ci.Cost {
			maxCost = max(maxCost, e.Weight)
		}
		pairsStored += 2 * len(ci.Cost)
	}
	return maxCost, allPairs, pairsStored
}

// siteCompUnchanged reports whether the complementary tables a
// fragment would hold under comp are identical to the ones the old
// site already holds — the sharing criterion for a fragment whose edge
// set did not change. Identical tables imply an identical CSR, so
// every derived per-site structure (and any cached leg result computed
// from it) stays valid. Both lists are in pair order.
func siteCompUnchanged(old *Site, fragID int, comp []*CompInfo) bool {
	held := old.Comp
	for _, ci := range comp {
		if ci.Pair.I != fragID && ci.Pair.J != fragID {
			continue
		}
		if len(held) == 0 || held[0].Pair != ci.Pair || !compEqual(held[0], ci) {
			return false
		}
		held = held[1:]
	}
	return len(held) == 0
}

// compEqual reports whether two complementary tables carry identical
// costs. A batch that left the tables alone hands back the very tables
// the old sites hold, so the usual answer is the pointer comparison.
func compEqual(a, b *CompInfo) bool {
	return a == b || slices.Equal(a.Cost, b.Cost)
}
