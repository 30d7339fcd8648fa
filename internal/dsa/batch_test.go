package dsa

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/fragment"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
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
// the new store the new ones — and a bit-unchanged one: while readers
// keep querying it (run under -race), batches that insert, delete and
// move nodes between fragments are applied on top of it, and afterwards
// its base adjacency, fragments and tables are exactly what they were.
func TestApplyCopyOnWrite(t *testing.T) {
	st, _ := pathStore(t)
	before, err := runPair(st, 0, 8, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if before.Cost != 8 {
		t.Fatalf("baseline cost = %v, want 8", before.Cost)
	}

	// An independent deep copy of the old store's structure, and its
	// adjacency lists in their exact order.
	oldFr := st.Fragmentation()
	sets := make([][]graph.Edge, oldFr.NumFragments())
	for i, f := range oldFr.Fragments() {
		sets[i] = append([]graph.Edge(nil), f.Edges...)
	}
	frozen, err := freshBuildFrom(oldFr.Base(), sets, ProblemShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	lists := make(map[graph.NodeID][]graph.Edge)
	for _, id := range oldFr.Base().Nodes() {
		lists[id] = append([]graph.Edge{}, oldFr.Base().Out(id)...)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := runPair(st, 0, 8, EngineDijkstra)
				if err != nil || res.Cost != 8 {
					t.Errorf("reader on the old snapshot: cost %v, err %v; want 8", res, err)
					return
				}
			}
		}()
	}

	next, stats, err := st.Apply(context.Background(), []EdgeOp{
		{Kind: OpInsert, Frag: 0, Edge: graph.Edge{From: 1, To: 7, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// More batches off the same old store and off its successor: deletes
	// (lists shortened), a node leaving a fragment, a parallel edge.
	for _, ops := range [][]EdgeOp{
		{{Kind: OpDelete, Frag: 1, Edge: graph.Edge{From: 4, To: 5, Weight: 1}}},
		{{Kind: OpDelete, Frag: 0, Edge: graph.Edge{From: 2, To: 3, Weight: 1}}, {Kind: OpDelete, Frag: 0, Edge: graph.Edge{From: 3, To: 2, Weight: 1}}},
		{{Kind: OpInsert, Frag: 2, Edge: graph.Edge{From: 0, To: 1, Weight: 1}}},
	} {
		for _, from := range []*Store{st, next} {
			if _, _, err := from.Apply(context.Background(), ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()

	if stats.Ops != 1 || stats.DijkstraRuns == 0 {
		t.Errorf("stats = %+v, want 1 op and global searches", stats)
	}
	if next.Epoch() != 1 || st.Epoch() != 0 {
		t.Fatalf("epochs: next %d (want 1), old %d (want 0)", next.Epoch(), st.Epoch())
	}
	if st.Fragmentation() != oldFr {
		t.Fatal("Apply replaced the receiver's fragmentation")
	}
	if err := storeDiff(st, frozen); err != nil {
		t.Errorf("old snapshot changed under Apply (copy-on-write violated): %v", err)
	}
	for id, want := range lists {
		got := oldFr.Base().Out(id)
		if !reflect.DeepEqual(append([]graph.Edge{}, got...), want) {
			t.Errorf("old base adjacency of node %d changed: %v, want %v", id, got, want)
		}
	}
	oldAgain, err := runPair(st, 0, 8, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if oldAgain.Cost != 8 {
		t.Errorf("old snapshot cost = %v after Apply, want 8 (copy-on-write violated)", oldAgain.Cost)
	}
	newRes, err := runPair(next, 0, 8, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if newRes.Cost != 3 { // 0→1 (1) + 1→7 (1) + 7→8 (1)
		t.Errorf("new snapshot cost = %v, want 3", newRes.Cost)
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
	res, err := runPair(next, 0, 8, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Errorf("0→8 should be unreachable after deleting 4→5, got cost %v", res.Cost)
	}
	rev, err := runPair(next, 8, 0, EngineDijkstra)
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
	oldFr, newFr := st.Fragmentation(), next.Fragmentation()
	for _, id := range []int{1, 2} {
		if next.Site(id) != st.Site(id) {
			t.Errorf("untouched site %d was rebuilt instead of shared", id)
		}
		if newFr.Fragment(id) != oldFr.Fragment(id) {
			t.Errorf("untouched fragment %d was rebuilt instead of shared", id)
		}
	}
	if newFr.Fragment(0) == oldFr.Fragment(0) {
		t.Error("touched fragment 0 must be replaced, not edited in place")
	}
	// No node changed fragments, so the tables derived from membership
	// carry over by pointer.
	if unsafe.SliceData(newFr.DisconnectionSets()) != unsafe.SliceData(oldFr.DisconnectionSets()) ||
		unsafe.SliceData(newFr.DisconnectionPairs()) != unsafe.SliceData(oldFr.DisconnectionPairs()) {
		t.Error("disconnection-set table was rebuilt by a membership-preserving batch")
	}
	if newFr.FragmentationGraph() != oldFr.FragmentationGraph() {
		t.Error("fragmentation graph was rebuilt by a membership-preserving batch")
	}
	// A batch that does move a node (7 joins fragment 0) derives them
	// again, and still shares the untouched fragments.
	moved, _, err := st.Apply(context.Background(), []EdgeOp{
		{Kind: OpInsert, Frag: 0, Edge: graph.Edge{From: 1, To: 7, Weight: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := moved.Fragmentation().DisconnectionSet(0, 2); !reflect.DeepEqual(got, []graph.NodeID{7}) {
		t.Errorf("DS(0,2) after 7 joined fragment 0 = %v, want [7]", got)
	}
	if moved.LooselyConnected() || !st.LooselyConnected() {
		t.Errorf("loosely connected: moved %v (want false), old %v (want true)", moved.LooselyConnected(), st.LooselyConnected())
	}
	if moved.Fragmentation().Fragment(1) != oldFr.Fragment(1) {
		t.Error("untouched fragment 1 was rebuilt by a membership-changing batch")
	}
	// A multi-op batch advances the epoch once. This one cancels out —
	// the edge it inserts it deletes again — so it rebuilds no site and
	// recomputes no table: every site, and whatever a cache holds on it,
	// carries over by pointer.
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
	if len(stats2.SitesRebuilt) != 0 || stats2.RecomputedSets != 0 || stats2.SitesShared != 3 {
		t.Errorf("cancelled batch: SitesRebuilt %v, RecomputedSets %d, SitesShared %d; want none, 0, 3",
			stats2.SitesRebuilt, stats2.RecomputedSets, stats2.SitesShared)
	}
	for id := range 3 {
		if next2.Site(id) != next.Site(id) {
			t.Errorf("cancelled batch rebuilt site %d", id)
		}
	}
}

// opCases counts the structural cases a run of randomOps and the
// oracle observed, so the property test can insist that its generator
// really reached the ones the patching write path handles specially.
type opCases struct {
	joined    int // an insert gave a node its first edge in a fragment
	left      int // a delete took a node's last edge in a fragment
	orphaned  int // ... leaving the node in no fragment at all
	parallel  int // an insert duplicated an existing edge
	undone    int // an insert was deleted again inside its own batch
	dsChanged int // a batch changed the disconnection sets
	fastRoute int // a batch provably left the complementary tables alone
}

// randomOps derives a valid op batch from rng against the tracked edge
// sets (the test's own ground truth for the fresh-build oracle, updated
// in step). Besides plain random inserts and deletes it aims at the
// cases the patching write path treats specially: an insert between
// arbitrary nodes (pulling a node into a fragment it was not in: a new
// disconnection-set node, possibly a new fragmentation-graph link), a
// parallel copy of an existing edge, an insert deleted again inside
// the batch, a heavy edge that cannot move any shortest path, and
// stripping every edge a fragment has at one node (the disconnection
// set shrinks; the node may end up in no fragment).
func randomOps(rng *rand.Rand, nodes []graph.NodeID, sets [][]graph.Edge, nOps int, cases *opCases) []EdgeOp {
	var ops []EdgeOp
	insert := func(frag int, e graph.Edge) {
		ops = append(ops, EdgeOp{Kind: OpInsert, Frag: frag, Edge: e})
		sets[frag] = append(sets[frag], e)
	}
	remove := func(frag, i int) {
		ops = append(ops, EdgeOp{Kind: OpDelete, Frag: frag, Edge: sets[frag][i]})
		sets[frag] = append(sets[frag][:i], sets[frag][i+1:]...)
	}
	for len(ops) < nOps {
		frag := rng.Intn(len(sets))
		switch rng.Intn(6) {
		case 0, 1: // insert between arbitrary nodes, sometimes far too heavy to matter
			u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if u == v {
				continue
			}
			w := 0.5 + rng.Float64()*4
			if rng.Intn(3) == 0 {
				w = 1e6
			}
			insert(frag, graph.Edge{From: u, To: v, Weight: w})
		case 2: // delete a random edge
			if len(sets[frag]) < 2 {
				continue
			}
			remove(frag, rng.Intn(len(sets[frag])))
		case 3: // parallel copy of an existing edge, here or in another fragment
			e := sets[frag][rng.Intn(len(sets[frag]))]
			insert(rng.Intn(len(sets)), e)
			cases.parallel++
		case 4: // insert, then delete the same edge in the same batch
			u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if u == v {
				continue
			}
			insert(frag, graph.Edge{From: u, To: v, Weight: 1e6})
			remove(frag, len(sets[frag])-1)
			cases.undone++
		case 5: // strip every edge the fragment has at one node
			e := sets[frag][rng.Intn(len(sets[frag]))]
			at := 0
			for _, x := range sets[frag] {
				if x.From == e.From || x.To == e.From {
					at++
				}
			}
			if at >= len(sets[frag]) {
				continue // would empty the fragment
			}
			for i := len(sets[frag]) - 1; i >= 0; i-- {
				if x := sets[frag][i]; x.From == e.From || x.To == e.From {
					remove(frag, i)
				}
			}
		}
	}
	return ops
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

// edgeCounts returns es as a multiset.
func edgeCounts(es []graph.Edge) map[graph.Edge]int {
	counts := make(map[graph.Edge]int, len(es))
	for _, e := range es {
		counts[e]++
	}
	return counts
}

// structuralDiff is the structural-equality oracle of the write path:
// it returns nil when got — a fragmentation reached by patching — is
// indistinguishable from want, one built from scratch by fragment.New:
// every fragment's edges in order and node set, every node's fragment
// membership, the disconnection sets, the shared-node set, the
// fragmentation graph, and the base graph's adjacency as multisets.
func structuralDiff(got, want *fragment.Fragmentation) error {
	if got.NumFragments() != want.NumFragments() {
		return fmt.Errorf("fragments: %d, want %d", got.NumFragments(), want.NumFragments())
	}
	gb, wb := got.Base(), want.Base()
	if gb.NumEdges() != wb.NumEdges() || gb.NumNodes() != wb.NumNodes() {
		return fmt.Errorf("base: %v, want %v", gb, wb)
	}
	for i, wf := range want.Fragments() {
		gf := got.Fragment(i)
		if gf.ID != wf.ID || !reflect.DeepEqual(gf.Edges, wf.Edges) {
			return fmt.Errorf("fragment %d edges: %v, want %v", i, gf.Edges, wf.Edges)
		}
		if !reflect.DeepEqual(gf.Nodes(), wf.Nodes()) {
			return fmt.Errorf("fragment %d nodes: %v, want %v", i, gf.Nodes(), wf.Nodes())
		}
	}
	for _, id := range wb.Nodes() {
		if !gb.HasNode(id) || gb.Coord(id) != wb.Coord(id) {
			return fmt.Errorf("node %d: missing or moved", id)
		}
		gfs, wfs := got.FragmentsOf(id), want.FragmentsOf(id)
		if len(gfs) != len(wfs) || (len(wfs) > 0 && !reflect.DeepEqual(gfs, wfs)) {
			return fmt.Errorf("FragmentsOf(%d): %v, want %v", id, gfs, wfs)
		}
		if !reflect.DeepEqual(edgeCounts(gb.Out(id)), edgeCounts(wb.Out(id))) {
			return fmt.Errorf("Out(%d): %v, want %v", id, gb.Out(id), wb.Out(id))
		}
	}
	if !reflect.DeepEqual(got.DisconnectionSets(), want.DisconnectionSets()) {
		return fmt.Errorf("disconnection sets: %v, want %v", got.DisconnectionSets(), want.DisconnectionSets())
	}
	if !reflect.DeepEqual(got.DisconnectionPairs(), want.DisconnectionPairs()) {
		return fmt.Errorf("disconnection pairs: %v, want %v", got.DisconnectionPairs(), want.DisconnectionPairs())
	}
	for k, nodes := range want.DisconnectionSets() {
		p := want.DisconnectionPairs()[k]
		if !reflect.DeepEqual(got.DisconnectionSet(p.J, p.I), nodes) {
			return fmt.Errorf("DisconnectionSet(%d,%d): %v, want %v", p.J, p.I, got.DisconnectionSet(p.J, p.I), nodes)
		}
	}
	gfg, wfg := got.FragmentationGraph(), want.FragmentationGraph()
	if gfg.CycleCount() != wfg.CycleCount() {
		return fmt.Errorf("fragmentation graph:\n%vwant\n%v", gfg, wfg)
	}
	return nil
}

// storeDiff extends structuralDiff to the deployed store: besides the
// fragmentation, every site must hold the same complementary tables and
// the same CSR as the from-scratch build.
func storeDiff(got, want *Store) error {
	if err := structuralDiff(got.Fragmentation(), want.Fragmentation()); err != nil {
		return err
	}
	gp, wp := got.Preprocessing(), want.Preprocessing()
	if gp.DisconnectionSets != wp.DisconnectionSets || gp.PairsStored != wp.PairsStored {
		return fmt.Errorf("preprocessing: %+v, want %+v", gp, wp)
	}
	if got.LooselyConnected() != want.LooselyConnected() {
		return fmt.Errorf("LooselyConnected: %v, want %v", got.LooselyConnected(), want.LooselyConnected())
	}
	for i, ws := range want.Sites() {
		gs := got.Site(i)
		if gs.Frag != got.Fragmentation().Fragment(i) {
			return fmt.Errorf("site %d does not hold its fragmentation's fragment", i)
		}
		if len(gs.Comp) != len(ws.Comp) {
			return fmt.Errorf("site %d holds %d complementary tables, want %d", i, len(gs.Comp), len(ws.Comp))
		}
		for k, wci := range ws.Comp {
			if gci := gs.Comp[k]; gci.Pair != wci.Pair || !compEqual(gci, wci) {
				return fmt.Errorf("site %d complementary table %v differs", i, wci.Pair)
			}
		}
		if !reflect.DeepEqual(gs.csr, ws.csr) {
			return fmt.Errorf("site %d CSR differs", i)
		}
	}
	return nil
}

// applyTopologies are the deployments the write-path properties run
// over: the loosely connected linear sweep of a transportation graph
// and of a grid (wide disconnection sets), the center-based
// fragmentation of a transportation graph (cyclic fragmentation graph)
// and a road network cut along its cities.
var applyTopologies = []struct {
	name  string
	build func(seed int64) (*fragment.Fragmentation, error)
}{
	{"transport-linear", func(seed int64) (*fragment.Fragmentation, error) {
		g, err := gen.Transportation(gen.TransportConfig{Clusters: 2, Cluster: gen.Defaults(8, seed)})
		if err != nil {
			return nil, err
		}
		res, err := linear.Fragment(g, linear.Options{NumFragments: 3})
		if err != nil {
			return nil, err
		}
		return res.Fragmentation, nil
	}},
	{"grid-linear", func(seed int64) (*fragment.Fragmentation, error) {
		g, err := gen.Grid(gen.GridConfig{Width: 6, Height: 5, DiagonalProb: 0.2, Seed: seed})
		if err != nil {
			return nil, err
		}
		res, err := linear.Fragment(g, linear.Options{NumFragments: 3})
		if err != nil {
			return nil, err
		}
		return res.Fragmentation, nil
	}},
	{"transport-center", func(seed int64) (*fragment.Fragmentation, error) {
		g, err := gen.Transportation(gen.TransportConfig{Clusters: 3, Cluster: gen.Defaults(7, seed)})
		if err != nil {
			return nil, err
		}
		return center.Fragment(g, center.Options{NumFragments: 3, Distributed: true})
	}},
	{"road", func(seed int64) (*fragment.Fragmentation, error) {
		g, sets, err := gen.RoadNetwork(gen.RoadConfig{
			Clusters: 3, ClusterWidth: 4, ClusterHeight: 3, Gateways: 2, DiagonalProb: 0.3, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return fragment.New(g, sets)
	}},
}

// checkApplySeries is the body shared by the property test and the
// fuzz target: apply a series of random batches, each to the store the
// previous one produced, and after every batch hold the patched store
// against a store built from scratch over the mutated edge sets,
// structurally (storeDiff; that equal stores answer alike, and like
// Dijkstra, is internal/oracle's). It returns the first difference.
func checkApplySeries(rng *rand.Rand, fr *fragment.Fragmentation, problem Problem, batches, maxOps int, cases *opCases) error {
	st, err := Build(fr, Options{Problem: problem})
	if err != nil {
		return err
	}
	nodes := fr.Nodes()
	sets := make([][]graph.Edge, fr.NumFragments())
	for i, f := range fr.Fragments() {
		sets[i] = append([]graph.Edge(nil), f.Edges...)
	}
	for b := 0; b < batches; b++ {
		ops := randomOps(rng, nodes, sets, 1+rng.Intn(maxOps), cases)
		next, stats, err := st.Apply(context.Background(), ops)
		if err != nil {
			return fmt.Errorf("batch %d %v: apply: %v", b, ops, err)
		}
		fresh, err := freshBuildFrom(fr.Base(), sets, problem)
		if err != nil {
			return fmt.Errorf("batch %d %v: fresh build refused what Apply accepted: %v", b, ops, err)
		}
		if err := storeDiff(next, fresh); err != nil {
			return fmt.Errorf("batch %d %v: %v", b, ops, err)
		}
		countCases(cases, st.Fragmentation(), next.Fragmentation(), stats)
		st = next
	}
	return nil
}

// countCases records which structural cases one applied batch was.
func countCases(cases *opCases, old, next *fragment.Fragmentation, stats BatchStats) {
	for _, id := range old.Nodes() {
		was, now := old.FragmentsOf(id), next.FragmentsOf(id)
		for _, f := range now {
			if !old.Fragment(f).HasNode(id) {
				cases.joined++
			}
		}
		for _, f := range was {
			if !next.Fragment(f).HasNode(id) {
				cases.left++
				if len(now) == 0 {
					cases.orphaned++
				}
			}
		}
	}
	if !reflect.DeepEqual(next.DisconnectionSets(), old.DisconnectionSets()) {
		cases.dsChanged++
	}
	if stats.DijkstraRuns == 0 && !stats.LocalOnly {
		cases.fastRoute++
	}
}

// TestPropertyApplyEqualsFreshBuild: after every batch of a random
// series, the patched store is structurally equal to a store built from
// scratch over the mutated graph — for both problems, on loosely
// connected and cyclic fragmentations. This is the correctness contract
// that lets the write path patch instead of rebuild: no fragment.New, no
// whole-store preprocessing.
func TestPropertyApplyEqualsFreshBuild(t *testing.T) {
	var cases opCases
	for _, problem := range []Problem{ProblemShortestPath, ProblemReachability} {
		for _, topo := range applyTopologies {
			t.Run(problem.String()+"/"+topo.name, func(t *testing.T) {
				f := func(seed int64) bool {
					fr, err := topo.build(seed)
					if err != nil {
						t.Logf("seed %d: %v", seed, err)
						return false
					}
					if err := checkApplySeries(rand.New(rand.NewSource(seed)), fr, problem, 4, 4, &cases); err != nil {
						t.Logf("seed %d: %v", seed, err)
						return false
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
					t.Error(err)
				}
			})
		}
	}
	// The generator must have reached every case the patch treats
	// specially, or the property above proved less than it claims.
	if cases.joined == 0 || cases.left == 0 || cases.orphaned == 0 || cases.parallel == 0 ||
		cases.undone == 0 || cases.dsChanged == 0 || cases.fastRoute == 0 {
		t.Errorf("generator coverage: %+v, want every case reached", cases)
	}
}

// FuzzApply drives random batch series from fuzzed inputs through the
// patching write path and holds every resulting store against the
// from-scratch build, structurally.
func FuzzApply(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(7), uint8(5), uint8(1))
	f.Add(int64(42), uint8(1), uint8(2))
	f.Add(int64(3), uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nOps, shape uint8) {
		problem := ProblemShortestPath
		if shape%2 == 1 {
			problem = ProblemReachability
		}
		topo := applyTopologies[int(shape/2)%len(applyTopologies)]
		fr, err := topo.build(seed)
		if err != nil {
			t.Skip()
		}
		var cases opCases
		if err := checkApplySeries(rand.New(rand.NewSource(seed)), fr, problem, 2, 1+int(nOps%6), &cases); err != nil {
			t.Fatalf("%s/%s seed %d: %v", problem, topo.name, seed, err)
		}
	})
}
