package dsa

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fragment"
	"repro/internal/graph"
)

// TestApplyAtomicPerOpErrors: a batch with admissible and refused ops
// applies NOTHING and reports every offending op with its index and
// typed sentinel.
func TestApplyAtomicPerOpErrors(t *testing.T) {
	st, _ := pathStore(t)
	ops := []EdgeOp{
		{Kind: OpInsert, Frag: 0, Edge: graph.Edge{From: 0, To: 2, Weight: 1}},   // fine
		{Kind: OpInsert, Frag: 9, Edge: graph.Edge{From: 0, To: 1, Weight: 1}},   // bad fragment
		{Kind: OpInsert, Frag: 0, Edge: graph.Edge{From: 0, To: 999, Weight: 1}}, // bad node
		{Kind: OpDelete, Frag: 0, Edge: graph.Edge{From: 7, To: 8, Weight: 1}},   // edge lives in fragment 2
		{Kind: OpInsert, Frag: 0, Edge: graph.Edge{From: 0, To: 1, Weight: -1}},  // negative weight
	}
	next, _, err := st.Apply(context.Background(), ops)
	if next != nil {
		t.Fatal("refused batch returned a store")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("got %T (%v), want *BatchError", err, err)
	}
	if len(be.Ops) != 4 {
		t.Fatalf("got %d op errors, want 4: %v", len(be.Ops), err)
	}
	wantIdx := []int{1, 2, 3, 4}
	wantErr := []error{ErrUnknownSite, ErrUnknownNode, ErrEdgeNotFound, ErrNegativeWeight}
	for i, oe := range be.Ops {
		if oe.Index != wantIdx[i] {
			t.Errorf("op error %d has index %d, want %d", i, oe.Index, wantIdx[i])
		}
		if !errors.Is(oe.Err, wantErr[i]) {
			t.Errorf("op error %d = %v, want errors.Is %v", i, oe.Err, wantErr[i])
		}
	}
	// The batch error itself is errors.Is-able for every refusal kind.
	for _, sentinel := range wantErr {
		if !errors.Is(err, sentinel) {
			t.Errorf("batch error does not wrap %v", sentinel)
		}
	}
	// Atomicity: the store is untouched — the valid first op did not
	// land either.
	if st.Epoch() != 0 {
		t.Errorf("epoch = %d after refused batch, want 0", st.Epoch())
	}
	if got := st.Fragmentation().Fragment(0).Size(); got != 6 {
		t.Errorf("fragment 0 has %d edges after refused batch, want 6", got)
	}
}

func TestApplyEmptyAndUnknownOps(t *testing.T) {
	st, _ := pathStore(t)
	if _, _, err := st.Apply(context.Background(), nil); !errors.Is(err, ErrEmptyBatch) {
		t.Errorf("nil ops: got %v, want ErrEmptyBatch", err)
	}
	_, _, err := st.Apply(context.Background(), []EdgeOp{{Kind: OpKind(7), Frag: 0}})
	var be *BatchError
	if !errors.As(err, &be) || len(be.Ops) != 1 || be.Ops[0].Index != 0 {
		t.Errorf("unknown op kind: got %v, want one-op BatchError", err)
	}
	// Deleting the last edge of a fragment is refused with its own
	// sentinel.
	g := graph.New()
	e1 := graph.Edge{From: 0, To: 1, Weight: 1}
	e2 := graph.Edge{From: 1, To: 2, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1}, {e2}})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st2.Apply(context.Background(), []EdgeOp{{Kind: OpDelete, Frag: 0, Edge: e1}}); !errors.Is(err, ErrEmptyFragment) {
		t.Errorf("emptying delete: got %v, want ErrEmptyFragment", err)
	}
}

// TestApplyCopyOnWrite: the receiver is a stable snapshot — after a
// cost-changing batch the old store still answers the old costs and
// the new store the new ones.
func TestApplyCopyOnWrite(t *testing.T) {
	st, _ := pathStore(t)
	before, err := runPair(st, 0, 8, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if before.Cost != 8 {
		t.Fatalf("baseline cost = %v, want 8", before.Cost)
	}
	next, stats, err := st.Apply(context.Background(), []EdgeOp{
		{Kind: OpInsert, Frag: 0, Edge: graph.Edge{From: 1, To: 7, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ops != 1 || stats.DijkstraRuns == 0 {
		t.Errorf("stats = %+v, want 1 op and global searches", stats)
	}
	if next.Epoch() != 1 || st.Epoch() != 0 {
		t.Fatalf("epochs: next %d (want 1), old %d (want 0)", next.Epoch(), st.Epoch())
	}
	oldAgain, err := runPair(st, 0, 8, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if oldAgain.Cost != 8 {
		t.Errorf("old snapshot cost = %v after Apply, want 8 (copy-on-write violated)", oldAgain.Cost)
	}
	newRes, err := runPair(next, 0, 8, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if newRes.Cost != 3 { // 0→1 (1) + 1→7 (1) + 7→8 (1)
		t.Errorf("new snapshot cost = %v, want 3", newRes.Cost)
	}
	if want := next.Fragmentation().Base().Distance(0, 8); math.Abs(newRes.Cost-want) > 1e-9 {
		t.Errorf("store %v vs global %v", newRes.Cost, want)
	}
}

// TestApplySingleOpErrors: each refusal kind, sent as a one-op batch,
// comes back as a one-entry BatchError at index 0 wrapping its typed
// sentinel.
func TestApplySingleOpErrors(t *testing.T) {
	st, _ := pathStore(t)
	unit := func(from, to graph.NodeID, w float64) graph.Edge { return graph.Edge{From: from, To: to, Weight: w} }
	for _, tc := range []struct {
		name string
		op   EdgeOp
		want error
	}{
		{"insert bad fragment", EdgeOp{Kind: OpInsert, Frag: 99, Edge: unit(0, 1, 1)}, ErrUnknownSite},
		{"insert unknown endpoint", EdgeOp{Kind: OpInsert, Frag: 0, Edge: unit(0, 999, 1)}, ErrUnknownNode},
		{"insert negative weight", EdgeOp{Kind: OpInsert, Frag: 0, Edge: unit(0, 1, -2)}, ErrNegativeWeight},
		{"delete bad fragment", EdgeOp{Kind: OpDelete, Frag: 99, Edge: unit(0, 1, 1)}, ErrUnknownSite},
		{"delete edge of another fragment", EdgeOp{Kind: OpDelete, Frag: 1, Edge: unit(0, 1, 1)}, ErrEdgeNotFound},
	} {
		next, _, err := st.Apply(context.Background(), []EdgeOp{tc.op})
		var be *BatchError
		if next != nil || !errors.As(err, &be) || len(be.Ops) != 1 || be.Ops[0].Index != 0 {
			t.Errorf("%s: got store %v, err %v; want a one-op BatchError", tc.name, next != nil, err)
			continue
		}
		if !errors.Is(be.Ops[0].Err, tc.want) {
			t.Errorf("%s: op error %v, want errors.Is %v", tc.name, be.Ops[0].Err, tc.want)
		}
	}
}

// TestApplyDeleteLengthensPaths: deleting the forward edge 4→5 of the
// middle fragment cuts 0 off from 8 (the reverse edge 5→4 points the
// wrong way) and leaves the reverse direction alone.
func TestApplyDeleteLengthensPaths(t *testing.T) {
	st, _ := pathStore(t)
	next, stats, err := st.Apply(context.Background(), []EdgeOp{
		{Kind: OpDelete, Frag: 1, Edge: graph.Edge{From: 4, To: 5, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// pathStore's disconnection sets are single nodes, so the
	// complementary tables are vacuous and the incremental write path
	// proves no global search is needed — the answers below are the
	// real oracle.
	if stats.DijkstraRuns != 0 {
		t.Errorf("delete ran %d global searches on vacuous complementary tables, want 0", stats.DijkstraRuns)
	}
	res, err := runPair(next, 0, 8, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Errorf("0→8 should be unreachable after deleting 4→5, got cost %v", res.Cost)
	}
	rev, err := runPair(next, 8, 0, EngineDijkstra, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rev.Reachable || rev.Cost != 8 {
		t.Errorf("8→0 = %+v, want cost 8", rev)
	}
}

// TestApplySharesUntouchedSites: a heavy in-fragment edge cannot move
// any global shortest path between disconnection-set nodes, so only
// the touched fragment is re-preprocessed; the other sites are shared
// by pointer — the whole point of the incremental write path.
func TestApplySharesUntouchedSites(t *testing.T) {
	st, _ := pathStore(t)
	next, stats, err := st.Apply(context.Background(), []EdgeOp{
		{Kind: OpInsert, Frag: 0, Edge: graph.Edge{From: 0, To: 3, Weight: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.SitesRebuilt) != 1 || stats.SitesRebuilt[0] != 0 {
		t.Errorf("SitesRebuilt = %v, want [0]", stats.SitesRebuilt)
	}
	if stats.SitesShared != 2 {
		t.Errorf("SitesShared = %d, want 2", stats.SitesShared)
	}
	if next.Site(0) == st.Site(0) {
		t.Error("touched site 0 must be rebuilt, not shared")
	}
	for _, id := range []int{1, 2} {
		if next.Site(id) != st.Site(id) {
			t.Errorf("untouched site %d was rebuilt instead of shared", id)
		}
	}
	// A multi-op batch advances the epoch once.
	next2, stats2, err := next.Apply(context.Background(), []EdgeOp{
		{Kind: OpInsert, Frag: 1, Edge: graph.Edge{From: 3, To: 6, Weight: 50}},
		{Kind: OpDelete, Frag: 1, Edge: graph.Edge{From: 3, To: 6, Weight: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if next2.Epoch() != 2 {
		t.Errorf("epoch after 2-op batch = %d, want 2", next2.Epoch())
	}
	if stats2.Ops != 2 {
		t.Errorf("stats2.Ops = %d, want 2", stats2.Ops)
	}
}

// randomOps derives a valid-with-high-probability op batch from rng
// against the store's current fragmentation, mirroring its effect on
// an independently tracked edge-set copy (the test's own ground truth
// for the fresh-build oracle).
func randomOps(rng *rand.Rand, st *Store, sets [][]graph.Edge, nOps int) ([]EdgeOp, [][]graph.Edge) {
	base := st.Fragmentation().Base()
	nodes := base.Nodes()
	var ops []EdgeOp
	for len(ops) < nOps {
		frag := rng.Intn(len(sets))
		if rng.Intn(2) == 0 {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			if u == v {
				continue
			}
			e := graph.Edge{From: u, To: v, Weight: 0.5 + rng.Float64()*4}
			ops = append(ops, EdgeOp{Kind: OpInsert, Frag: frag, Edge: e})
			sets[frag] = append(sets[frag], e)
		} else {
			if len(sets[frag]) < 2 {
				continue
			}
			i := rng.Intn(len(sets[frag]))
			e := sets[frag][i]
			ops = append(ops, EdgeOp{Kind: OpDelete, Frag: frag, Edge: e})
			sets[frag] = append(sets[frag][:i], sets[frag][i+1:]...)
		}
	}
	return ops, sets
}

// freshBuildFrom rebuilds a store from scratch over the mutated edge
// sets — the oracle the incremental Apply must match.
func freshBuildFrom(base *graph.Graph, sets [][]graph.Edge, problem Problem) (*Store, error) {
	nb := graph.New()
	for _, id := range base.Nodes() {
		nb.AddNode(id, base.Coord(id))
	}
	for _, s := range sets {
		for _, e := range s {
			nb.AddEdge(e)
		}
	}
	fr, err := fragment.New(nb, sets)
	if err != nil {
		return nil, err
	}
	return Build(fr, Options{Problem: problem})
}

// TestPropertyApplyEqualsFreshBuild: after a random batch, the
// incrementally applied store answers exactly like a store built from
// scratch over the mutated graph — for both the cost and the
// connectivity problem. This is the correctness contract that lets
// the write path skip whole-store preprocessing.
func TestPropertyApplyEqualsFreshBuild(t *testing.T) {
	for _, problem := range []Problem{ProblemShortestPath, ProblemReachability} {
		problem := problem
		t.Run(problem.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				st, _, err := buildLinearStore(seed, 2, 8, 3)
				if err != nil {
					return false
				}
				if problem == ProblemReachability {
					// Rebuild the same fragmentation for the cheaper problem.
					st, err = Build(st.Fragmentation(), Options{Problem: ProblemReachability})
					if err != nil {
						return false
					}
				}
				sets := make([][]graph.Edge, st.Fragmentation().NumFragments())
				for i, fr := range st.Fragmentation().Fragments() {
					sets[i] = append([]graph.Edge(nil), fr.Edges...)
				}
				ops, sets := randomOps(rng, st, sets, 1+rng.Intn(4))
				next, _, err := st.Apply(context.Background(), ops)
				if err != nil {
					t.Logf("seed %d: apply: %v", seed, err)
					return false
				}
				fresh, err := freshBuildFrom(st.Fragmentation().Base(), sets, problem)
				if err != nil {
					t.Logf("seed %d: fresh build: %v", seed, err)
					return false
				}
				nodes := fresh.Fragmentation().Base().Nodes()
				for q := 0; q < 12; q++ {
					src := nodes[rng.Intn(len(nodes))]
					dst := nodes[rng.Intn(len(nodes))]
					if problem == ProblemReachability {
						a, errA := reachable(next, src, dst, EngineBitset, false)
						b, errB := reachable(fresh, src, dst, EngineBitset, false)
						if (errA == nil) != (errB == nil) {
							t.Logf("seed %d: connected(%d,%d): %v vs %v", seed, src, dst, errA, errB)
							return false
						}
						if errA != nil {
							continue // both refuse (e.g. node isolated by deletes) — agreement
						}
						if a != b {
							t.Logf("seed %d: connected(%d,%d): incremental %v, fresh %v", seed, src, dst, a, b)
							return false
						}
						continue
					}
					a, errA := runPair(next, src, dst, EngineDijkstra, false)
					b, errB := runPair(fresh, src, dst, EngineDijkstra, false)
					if (errA == nil) != (errB == nil) {
						t.Logf("seed %d: query(%d,%d): %v vs %v", seed, src, dst, errA, errB)
						return false
					}
					if errA != nil {
						continue // both refuse — agreement
					}
					if a.Reachable != b.Reachable || (a.Reachable && math.Abs(a.Cost-b.Cost) > 1e-9) {
						t.Logf("seed %d: query(%d,%d): incremental %v/%v, fresh %v/%v", seed, src, dst, a.Reachable, a.Cost, b.Reachable, b.Cost)
						return false
					}
				}
				// Structural agreement: same disconnection sets, same
				// per-site augmented search graphs.
				if next.Preprocessing().DisconnectionSets != fresh.Preprocessing().DisconnectionSets {
					return false
				}
				for i := range fresh.Sites() {
					if next.Site(i).Augmented().NumEdges() != fresh.Site(i).Augmented().NumEdges() {
						t.Logf("seed %d: site %d augmented edges %d vs %d", seed, i, next.Site(i).Augmented().NumEdges(), fresh.Site(i).Augmented().NumEdges())
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertyUpdateSeriesPreservesExactness: after a random series of
// single-op inserts and deletes, each applied to the store the previous
// one produced, the store still answers exactly like global Dijkstra on
// its (current) base graph.
func TestPropertyUpdateSeriesPreservesExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, _, err := buildLinearStore(seed, 2, 8, 2)
		if err != nil {
			return false
		}
		for step := 0; step < 3; step++ {
			nodes := st.Fragmentation().Base().Nodes()
			frag := rng.Intn(st.Fragmentation().NumFragments())
			var op EdgeOp
			if rng.Intn(2) == 0 {
				u := nodes[rng.Intn(len(nodes))]
				v := nodes[rng.Intn(len(nodes))]
				if u == v {
					continue
				}
				op = EdgeOp{Kind: OpInsert, Frag: frag, Edge: graph.Edge{From: u, To: v, Weight: 1 + rng.Float64()*5}}
			} else {
				// Skip a delete that would empty the fragment.
				edges := st.Fragmentation().Fragment(frag).Edges
				if len(edges) < 2 {
					continue
				}
				op = EdgeOp{Kind: OpDelete, Frag: frag, Edge: edges[rng.Intn(len(edges))]}
			}
			if st, _, err = st.Apply(context.Background(), []EdgeOp{op}); err != nil {
				return false
			}
			// Spot-check exactness (only when still loosely connected;
			// inserts can create cycles in G').
			if !st.LooselyConnected() {
				continue
			}
			base := st.Fragmentation().Base()
			nodes = base.Nodes()
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			res, err := runPair(st, src, dst, EngineDijkstra, false)
			if err != nil {
				return false
			}
			want := base.Distance(src, dst)
			if res.Reachable != !math.IsInf(want, 1) {
				return false
			}
			if res.Reachable && math.Abs(res.Cost-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// FuzzApply drives random op batches from fuzzed inputs through the
// incremental write path and cross-checks a sampled pair against the
// fresh-build oracle.
func FuzzApply(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(7), uint8(5), uint8(1))
	f.Add(int64(42), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nOps, problemBit uint8) {
		problem := ProblemShortestPath
		if problemBit%2 == 1 {
			problem = ProblemReachability
		}
		rng := rand.New(rand.NewSource(seed))
		st, _, err := buildLinearStore(seed, 2, 6, 2)
		if err != nil {
			t.Skip()
		}
		if problem == ProblemReachability {
			st, err = Build(st.Fragmentation(), Options{Problem: problem})
			if err != nil {
				t.Skip()
			}
		}
		sets := make([][]graph.Edge, st.Fragmentation().NumFragments())
		for i, fr := range st.Fragmentation().Fragments() {
			sets[i] = append([]graph.Edge(nil), fr.Edges...)
		}
		ops, sets := randomOps(rng, st, sets, 1+int(nOps%4))
		next, _, err := st.Apply(context.Background(), ops)
		if err != nil {
			t.Skip() // refused batches are exercised elsewhere
		}
		fresh, err := freshBuildFrom(st.Fragmentation().Base(), sets, problem)
		if err != nil {
			t.Fatalf("fresh build refused what Apply accepted: %v", err)
		}
		nodes := fresh.Fragmentation().Base().Nodes()
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		if problem == ProblemReachability {
			a, errA := reachable(next, src, dst, EngineBitset, false)
			b, errB := reachable(fresh, src, dst, EngineBitset, false)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("connected(%d,%d): %v vs %v", src, dst, errA, errB)
			}
			if errA == nil && a != b {
				t.Fatalf("connected(%d,%d): incremental %v, fresh %v", src, dst, a, b)
			}
			return
		}
		a, errA := runPair(next, src, dst, EngineDijkstra, false)
		b, errB := runPair(fresh, src, dst, EngineDijkstra, false)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("query(%d,%d): %v vs %v", src, dst, errA, errB)
		}
		if errA != nil {
			return // both refuse (node isolated by deletes) — agreement
		}
		if a.Reachable != b.Reachable || (a.Reachable && math.Abs(a.Cost-b.Cost) > 1e-9) {
			t.Fatalf("query(%d,%d): incremental %v/%v, fresh %v/%v", src, dst, a.Reachable, a.Cost, b.Reachable, b.Cost)
		}
	})
}
