// Package dsa implements the disconnection set approach of Houtsma,
// Apers and Ceri (VLDB'90), the parallel transitive-closure strategy
// whose fragmentation-design problem the ICDE'93 paper studies.
//
// A Store deploys a fragmentation: one Site per fragment R_i, each
// holding the induced subgraph G_i and the complementary information of
// every disconnection set the fragment participates in — the global
// shortest-path cost between every pair of that disconnection set's
// nodes, "stored at both sites storing the fragments R_i and R_j"
// (§2.1). Queries are answered by per-fragment searches that never
// leave their site (augmented with the complementary shortcuts),
// followed by an assembly phase of small relational joins; with a
// loosely connected fragmentation the result is exact, "answers are
// correct and precise".
package dsa

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// CompInfo is the complementary information of one disconnection set:
// the cost of the global shortest path between every ordered pair of
// its nodes (pairs with no connecting path are absent). For the
// reachability problem the same table serves as the connectivity
// relation (present = connected). The node set itself is the
// fragmentation's (fr.DisconnectionSet(Pair.I, Pair.J)).
type CompInfo struct {
	// Pair identifies the disconnection set DS_ij.
	Pair fragment.Pair
	// Cost holds one edge (a, b, cost) per ordered node pair a ≠ b with a
	// connecting path, sorted by (From, To) — the form every consumer
	// wants. As extra edges of a fragment's subgraph they let a purely
	// local search account for path segments that leave the fragment and
	// return through the same disconnection set (the footnote of §2.1:
	// "the shortest path might include nodes outside the chain, however,
	// their contribution is precomputed in the complementary
	// information"); the snapshot writer stores them in this order.
	// Read-only once built: sites and successive stores share it.
	Cost []graph.Edge
}

// Site is one processor of the deployment. It stores what the paper's
// site stores — "the fragment and the complementary information" of its
// disconnection sets (§2.1) — and the search structures derived from
// those two: one graph, built with the site, and the CSR and relational
// forms of it, each built when an engine first asks.
type Site struct {
	// ID is the fragment ID this site stores.
	ID int
	// Frag is the fragment.
	Frag *fragment.Fragment
	// Comp holds the complementary information of every disconnection
	// set involving this fragment, keyed by the normalised pair — the
	// store's own tables, by pointer ("stored at both sites", §2.1).
	Comp map[fragment.Pair]*CompInfo
	// augmented is the site's one graph: G_i, the subgraph induced by
	// the fragment's edges, plus every shortcut edge of Comp.
	augmented *graph.Graph
	// localRel is augmented as an edge relation. Only the semi-naive
	// engine reads it, so it exists only on a site that engine has been
	// asked to run on (relOnce): traffic through the Dijkstra engine or
	// the CSR kernels (dense, bitset) never boxes an edge into a
	// relational tuple.
	relOnce  sync.Once
	localRel *relation.Relation
	// snapshot is augmented's CSR, the one every other engine reads: the
	// Dijkstra engine, the pipelined walk and route reconstruction search
	// it, and dense wraps it for the dense cost and bitset kernels (or
	// denseErr says why it cannot). Both are built lazily once per
	// deployment (updates rebuild the sites, so a snapshot can never go
	// stale within a site's lifetime) — on a restored store too, since
	// TCSF does not keep them, and after Apply, which leaves a rebuilt
	// site's CSR to its first reader.
	csrOnce   sync.Once
	snapshot  *graph.CSR
	denseOnce sync.Once
	dense     *tc.DenseGraph
	denseErr  error
}

// rel returns the augmented subgraph as an edge relation, building it
// on first use. Safe for concurrent callers (sync.Once). Its one caller
// is the EngineSemiNaive arm of ExecuteLegTableCtx.
func (s *Site) rel() *relation.Relation {
	s.relOnce.Do(func() {
		s.localRel = relation.FromGraph(s.augmented)
	})
	return s.localRel
}

// csr returns the site's CSR, building it on first use. Safe for
// concurrent callers (sync.Once).
func (s *Site) csr() *graph.CSR {
	s.csrOnce.Do(func() { s.snapshot = s.augmented.CSR() })
	return s.snapshot
}

// DenseKernel returns the site's CSR as the kernels read it — the one
// index form of the fragment, which the dense cost engine and the
// bitset connectivity engine run on as the Dijkstra engine does —
// building it on first use. It fails on input the kernels cannot serve
// — notably negative edge weights, which graph files may carry — and
// the error, wrapping ErrNegativeWeight, is memoized and surfaced per
// query, exactly like the semi-naive engine's refusal (a
// worker-goroutine panic would kill the serving daemon).
func (s *Site) DenseKernel() (*tc.DenseGraph, error) {
	s.denseOnce.Do(func() {
		if s.dense, s.denseErr = tc.NewDenseGraph(s.csr()); s.denseErr != nil {
			s.denseErr = fmt.Errorf("dsa: site %d dense snapshot: %w", s.ID, s.denseErr)
		}
	})
	return s.dense, s.denseErr
}

// Augmented returns the search graph of the site: the fragment plus the
// complementary shortcut edges.
func (s *Site) Augmented() *graph.Graph { return s.augmented }

// PreprocessStats reports the cost of building the complementary
// information — "the disadvantage of the disconnection set approach is
// mainly due to the pre-processing required" (§2.1).
type PreprocessStats struct {
	// DijkstraRuns is the number of single-source shortest-path
	// computations over the full graph.
	DijkstraRuns int
	// PairsStored is the total number of (a, b, cost) complementary
	// facts stored across all sites (each DS is stored at two sites).
	PairsStored int
	// DisconnectionSets is the number of non-empty DS_ij.
	DisconnectionSets int
}

// Problem selects the path problem a store is precomputed for — "these
// properties depend on the particular path problem considered. For
// instance, for the shortest path problem it is required to precompute
// the shortest path among any two cities on the border" (§2.1).
type Problem int

const (
	// ProblemShortestPath precomputes global minimum costs between
	// disconnection-set nodes; such stores answer connectivity and cost.
	ProblemShortestPath Problem = iota
	// ProblemReachability precomputes only connectivity between
	// disconnection-set nodes, with cheap BFS preprocessing. Such a
	// store answers connectivity only: the cost entry points
	// (QueryPath, QueryPipelinedEngineCtx, tcq.Plan) refuse it (the
	// complementary information cannot support them).
	ProblemReachability
)

// String names the problem the way the CLI flags spell it.
func (p Problem) String() string {
	switch p {
	case ProblemShortestPath:
		return "shortestpath"
	case ProblemReachability:
		return "reachability"
	}
	return fmt.Sprintf("problem(%d)", int(p))
}

// ParseProblem resolves a problem name, case-insensitively. Unknown
// names return an error wrapping ErrUnknownProblem — call sites must
// branch with errors.Is, never by matching problem-name strings
// themselves.
func ParseProblem(name string) (Problem, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "shortestpath", "shortest-path", "cost":
		return ProblemShortestPath, nil
	case "reachability", "connectivity":
		return ProblemReachability, nil
	}
	return 0, fmt.Errorf("dsa: %w %q (want shortestpath or reachability)", ErrUnknownProblem, name)
}

// Store is a fragmentation deployed for disconnection-set query
// processing.
//
// A Store is immutable after Build: queries only read it (the lazy
// per-site structures — the CSR, its kernel wrapper and the edge
// relation — are sync.Once-guarded), so any number of goroutines may
// query one Store concurrently without locking. Updates go through
// Apply, which returns a NEW store sharing every untouched site with its
// predecessor — serving layers swap a store pointer atomically instead
// of locking readers out.
type Store struct {
	fr      *fragment.Fragmentation
	sites   []*Site
	prep    PreprocessStats
	problem Problem
	// comp holds the complementary table of every disconnection set,
	// keyed by the normalised pair; each site's Comp points into it.
	comp map[fragment.Pair]*CompInfo
	// compMaxCost is the largest cost any complementary table stores and
	// compAllPairs whether every table has a cost for every ordered pair
	// of its disconnection set — what Apply's fast route (compUnaffected)
	// needs to know about the tables, computed where they are
	// (compBounds) instead of rescanned on every batch.
	compMaxCost  float64
	compAllPairs bool
	// maxChains bounds chain enumeration for cyclic fragmentation
	// graphs; 0 means unlimited.
	maxChains int
	// epoch counts the update batches applied since Build. Every
	// successful Apply increments it; it names a generation (the epoch a
	// query pinned, the one a peer's leg request asks for), while state
	// derived from one site's data is keyed by the *Site itself, which
	// Apply replaces exactly when that data changes.
	epoch uint64
}

// Options configures Build.
type Options struct {
	// MaxChains bounds how many fragment chains a query considers when
	// the fragmentation graph is cyclic (0 = all). Loosely connected
	// fragmentations have at most one chain and never hit the bound.
	MaxChains int
	// Problem selects the precomputed path problem (default
	// ProblemShortestPath).
	Problem Problem
}

// Build precomputes a Store from a fragmentation: for every node of
// every disconnection set it runs one global single-source search and
// stores the costs to the other members of that disconnection set. The
// preprocessing is the only phase that reads the whole graph; queries
// touch only per-site data.
func Build(fr *fragment.Fragmentation, opt Options) (*Store, error) {
	if err := checkOptions(fr, opt); err != nil {
		return nil, err
	}
	st := &Store{fr: fr, maxChains: opt.MaxChains, problem: opt.Problem}
	dss := fr.DisconnectionSets()
	st.prep.DisconnectionSets = len(dss)

	comp, runs, err := computeComp(context.Background(), fr.Base(), dss, opt.Problem)
	if err != nil {
		return nil, err
	}
	st.prep.DijkstraRuns = runs
	st.comp = comp
	st.compMaxCost, st.compAllPairs, st.prep.PairsStored = compBounds(dss, comp)
	if st.sites, err = deploySites(context.Background(), fr, comp, nil, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// checkOptions is the validation Build and Restore share.
func checkOptions(fr *fragment.Fragmentation, opt Options) error {
	if fr == nil {
		return fmt.Errorf("dsa: nil fragmentation")
	}
	if opt.MaxChains < 0 {
		return fmt.Errorf("dsa: MaxChains must be non-negative, got %d", opt.MaxChains)
	}
	if opt.Problem != ProblemShortestPath && opt.Problem != ProblemReachability {
		return fmt.Errorf("dsa: %w %d", ErrUnknownProblem, opt.Problem)
	}
	return nil
}

// parallelWorkers is how many goroutines parallelFor runs n calls on.
func parallelWorkers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// parallelFor calls fn(w, i) for every i in [0, n) from
// parallelWorkers(n) goroutines taking indices off one counter — the
// package's one worker pool, under the global searches and the site
// builds. w numbers the calling goroutine, for per-worker scratch. ctx
// is observed before each index; a canceled run returns ErrCanceled.
func parallelFor(ctx context.Context, n int, fn func(w, i int)) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range parallelWorkers(n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return canceledErr(ctx)
	}
	return nil
}

// deploySites is the one way a store gets its sites (Build, Restore,
// Apply). Per fragment of fr, in ID order, it shares prev's site when
// the fragment is untouched and the complementary tables it holds are
// unchanged under comp — the search graph and whatever was derived from
// it carry over by pointer — and otherwise builds the site, whose CSR
// the first reader that needs it builds, as after Build and Restore.
// prev is nil (touched unused) when there is no predecessor.
func deploySites(ctx context.Context, fr *fragment.Fragmentation, comp map[fragment.Pair]*CompInfo, prev []*Site, touched func(fragID int) bool) ([]*Site, error) {
	base, shared, frags := fr.Base(), fr.SharedNodes(), fr.Fragments()
	sites := make([]*Site, len(frags))
	err := parallelFor(ctx, len(frags), func(_, i int) {
		f := frags[i]
		if prev != nil && !touched(f.ID) && siteCompUnchanged(prev[f.ID], f.ID, comp) {
			sites[i] = prev[f.ID]
			return
		}
		sites[i] = buildSite(f, base, shared, comp)
	})
	return sites, err
}

// computeComp runs one global single-source search per distinct
// disconnection-set node (a node can belong to several disconnection
// sets; the run is shared) and builds the complementary tables. The
// shortest-path problem needs Dijkstra; reachability gets away with BFS
// — cheaper preprocessing for a weaker complementary table.
//
// The searches are independent, so they fan out over parallelFor's
// goroutines — this is what keeps a batched update's preprocessing
// window short (the write path re-runs computeComp on every batch).
// They run on graph.Searches: one index-form snapshot of the base
// graph's adjacency read by every worker, one set of graph-sized rows
// per worker; a search reads its node's disconnection-set peers' costs
// from its row and allocates only the table rows it keeps. ctx is
// observed between searches, so a canceled batched update abandons its
// preprocessing promptly.
func computeComp(ctx context.Context, base *graph.Graph, dss map[fragment.Pair][]graph.NodeID, problem Problem) (map[fragment.Pair]*CompInfo, int, error) {
	// member lists, per disconnection-set node, its row in every table
	// it belongs to; rows[p][k] is filled by the search from dss[p][k].
	type slot struct {
		pair fragment.Pair
		row  int
	}
	member := make(map[graph.NodeID][]slot)
	rows := make(map[fragment.Pair][][]graph.Edge, len(dss))
	for p, nodes := range dss {
		rows[p] = make([][]graph.Edge, len(nodes))
		for k, id := range nodes {
			member[id] = append(member[id], slot{p, k})
		}
	}
	ids := make([]graph.NodeID, 0, len(member))
	for id := range member {
		ids = append(ids, id)
	}
	searches := base.Searches(parallelWorkers(len(ids)))
	err := parallelFor(ctx, len(ids), func(w, i int) {
		a := ids[i]
		// Of a reachability search only presence is kept, as the marker 1.
		nodes, dist, _ := searches[w](a, problem == ProblemReachability)
		for _, m := range member[a] {
			peers := dss[m.pair]
			row := make([]graph.Edge, 0, len(peers)-1)
			for _, b := range peers {
				if k, ok := slices.BinarySearch(nodes, b); ok && a != b && dist[k] < graph.Inf {
					d := dist[k]
					if problem == ProblemReachability {
						d = 1
					}
					row = append(row, graph.Edge{From: a, To: b, Weight: d})
				}
			}
			rows[m.pair][m.row] = row
		}
	})
	if err != nil {
		return nil, 0, err
	}

	// Disconnection sets are sorted, so row after row is (From, To) order.
	comp := make(map[fragment.Pair]*CompInfo, len(dss))
	for p := range dss {
		comp[p] = &CompInfo{Pair: p, Cost: slices.Concat(rows[p]...)}
	}
	return comp, len(ids), nil
}

// buildSite constructs one deployed site: the complementary tables
// involving the fragment and the augmented search graph (the fragment's
// induced subgraph plus the complementary shortcuts). shared is the
// fragmentation's disconnection-set node set (fr.SharedNodes), computed
// once by the caller and reused across all sites.
func buildSite(f *fragment.Fragment, base *graph.Graph, shared map[graph.NodeID]bool, comp map[fragment.Pair]*CompInfo) *Site {
	site := &Site{
		ID:        f.ID,
		Frag:      f,
		Comp:      make(map[fragment.Pair]*CompInfo),
		augmented: localGraph(f, base, shared),
	}
	for p, ci := range comp {
		if p.I != f.ID && p.J != f.ID {
			continue
		}
		site.Comp[p] = ci
		for _, e := range ci.Cost {
			site.augmented.AddEdge(e)
		}
	}
	return site
}

// localGraph materialises the fragment's induced subgraph G_i without
// pushing every edge through a per-edge map append. A node private to
// the fragment has all of its base-graph edges inside the fragment
// (fragments partition the edge set), so its adjacency lists are the
// base graph's, shared wholesale; only the disconnection-set nodes,
// whose base adjacency spans fragments, get filtered lists rebuilt
// from the fragment's edges. Sharing is safe because adjacency lists
// are immutable once installed (see graph.InstallNode); the length
// clamps make buildSite's shortcut AddEdge reallocate instead of
// spilling into a shared backing array.
func localGraph(f *fragment.Fragment, base *graph.Graph, shared map[graph.NodeID]bool) *graph.Graph {
	var bOut, bIn map[graph.NodeID][]graph.Edge
	for _, e := range f.Edges {
		if shared[e.From] {
			if bOut == nil {
				bOut = make(map[graph.NodeID][]graph.Edge)
			}
			bOut[e.From] = append(bOut[e.From], e)
		}
		if shared[e.To] {
			if bIn == nil {
				bIn = make(map[graph.NodeID][]graph.Edge)
			}
			bIn[e.To] = append(bIn[e.To], e)
		}
	}
	local := graph.NewWithCapacity(f.NumNodes())
	f.EachNode(func(id graph.NodeID) {
		if shared[id] {
			local.InstallNode(id, base.Coord(id), slices.Clip(bOut[id]), slices.Clip(bIn[id]))
		} else {
			local.InstallNode(id, base.Coord(id), slices.Clip(base.Out(id)), slices.Clip(base.In(id)))
		}
	})
	return local
}

// Fragmentation returns the deployed fragmentation.
func (st *Store) Fragmentation() *fragment.Fragmentation { return st.fr }

// Sites returns the deployed sites in fragment-ID order.
func (st *Store) Sites() []*Site { return st.sites }

// Site returns the site storing fragment i.
func (st *Store) Site(i int) *Site { return st.sites[i] }

// Preprocessing returns the preprocessing cost report.
func (st *Store) Preprocessing() PreprocessStats { return st.prep }

// LooselyConnected reports whether the deployed fragmentation graph is
// acyclic, the precondition for single-chain planning and exact
// answers.
func (st *Store) LooselyConnected() bool { return st.fr.FragmentationGraph().IsLooselyConnected() }

// Problem returns the path problem the store was precomputed for.
func (st *Store) Problem() Problem { return st.problem }

// Epoch returns the store's update generation: 0 at Build, one more on
// each store Apply returns. A given store's epoch never changes, so it
// names the generation a reader pinned.
func (st *Store) Epoch() uint64 { return st.epoch }
