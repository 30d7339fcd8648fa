package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/gen"
	"repro/internal/graph"
)

// roadStore builds a small road-network store — the shape the format
// is for: several fragments, non-trivial disconnection sets, weighted
// symmetric edges.
func roadStore(t *testing.T, opt dsa.Options, seed int64) (*dsa.Store, *graph.Graph) {
	t.Helper()
	g, sets, err := gen.RoadNetwork(gen.RoadConfig{
		Clusters: 4, ClusterWidth: 5, ClusterHeight: 4,
		Gateways: 2, DiagonalProb: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st, g
}

// runPair plans and runs one pair sequentially on a store.
func runPair(st *dsa.Store, src, tgt graph.NodeID, eng dsa.Engine) (*dsa.Result, error) {
	plan, err := st.NewPlan(src, tgt)
	if err != nil {
		return nil, err
	}
	return st.RunPlanCtx(context.Background(), plan, eng, false)
}

// assertSameAnswers holds a decoded store to the one it was encoded
// from: for sampled node pairs, the same epoch and, under every engine,
// the same connectivity — and bit-identical costs where the problem and
// the engine have them. (That either answers like Dijkstra is
// internal/oracle's "loaded" and "recovered" views.)
func assertSameAnswers(t *testing.T, built, loaded *dsa.Store, g *graph.Graph, pairs int, seed int64) {
	t.Helper()
	if built.Epoch() != loaded.Epoch() {
		t.Fatalf("epoch drifted: built %d, loaded %d", built.Epoch(), loaded.Epoch())
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	for i := 0; i < pairs; i++ {
		src := graph.NodeID(rng.Intn(n))
		tgt := graph.NodeID(rng.Intn(n))
		for _, eng := range dsa.Engines() {
			want, err := runPair(built, src, tgt, eng)
			if err != nil {
				t.Fatalf("built query %d→%d (%v): %v", src, tgt, eng, err)
			}
			got, err := runPair(loaded, src, tgt, eng)
			if err != nil {
				t.Fatalf("loaded query %d→%d (%v): %v", src, tgt, eng, err)
			}
			costed := eng.CostCapable() && built.Problem() == dsa.ProblemShortestPath
			if want.Reachable != got.Reachable || costed && want.Cost != got.Cost {
				t.Fatalf("query %d→%d (%v): built (%v, %g), loaded (%v, %g)",
					src, tgt, eng, want.Reachable, want.Cost, got.Reachable, got.Cost)
			}
		}
	}
}

func TestEncodeDecodeRoundTripShortestPath(t *testing.T) {
	st, g := roadStore(t, dsa.Options{}, 11)
	b, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, st, loaded, g, 60, 1)
}

func TestEncodeDecodeRoundTripReachability(t *testing.T) {
	st, g := roadStore(t, dsa.Options{Problem: dsa.ProblemReachability}, 13)
	b, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Problem() != dsa.ProblemReachability {
		t.Fatalf("problem not preserved: %v", loaded.Problem())
	}
	assertSameAnswers(t, st, loaded, g, 60, 2)
}

func TestRoundTripPreservesStats(t *testing.T) {
	st, _ := roadStore(t, dsa.Options{}, 17)
	b, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Preprocessing(), st.Preprocessing(); got != want {
		t.Fatalf("preprocess stats drifted: %+v vs %+v", got, want)
	}
}

// TestPatchedStoreEncodesLikeFreshBuild: the write path patches the
// fragmentation instead of rebuilding it; whatever it shares or edits,
// the snapshot of the patched store must be byte-identical to that of a
// store built from scratch over the same edge sets. Two more batches
// cover the routes the first (a cost-changing insert) does not: a heavy
// edge inserted and deleted again, which leaves the complementary
// tables alone, and a delete with an insert that pulls a node into
// another fragment. (That a loaded image takes batches and answers like
// the original is internal/oracle's "loaded" view.)
func TestPatchedStoreEncodesLikeFreshBuild(t *testing.T) {
	st, _ := roadStore(t, dsa.Options{}, 19)
	ops := []dsa.EdgeOp{
		{Kind: dsa.OpInsert, Frag: 0, Edge: graph.Edge{From: 0, To: 7, Weight: 0.25}},
		{Kind: dsa.OpInsert, Frag: 0, Edge: graph.Edge{From: 7, To: 0, Weight: 0.25}},
	}
	next1, _, err := st.Apply(t.Context(), ops)
	if err != nil {
		t.Fatal(err)
	}
	far := next1.Fragmentation().Fragment(3).Nodes()[0]
	for _, batch := range [][]dsa.EdgeOp{
		ops[:0],
		{
			{Kind: dsa.OpInsert, Frag: 1, Edge: graph.Edge{From: 21, To: 25, Weight: 1e9}},
			{Kind: dsa.OpDelete, Frag: 1, Edge: graph.Edge{From: 21, To: 25, Weight: 1e9}},
		},
		{
			{Kind: dsa.OpDelete, Frag: 0, Edge: graph.Edge{From: 7, To: 0, Weight: 0.25}},
			{Kind: dsa.OpInsert, Frag: 0, Edge: graph.Edge{From: 3, To: far, Weight: 0.5}},
		},
	} {
		if len(batch) > 0 {
			var stats dsa.BatchStats
			if next1, stats, err = next1.Apply(t.Context(), batch); err != nil {
				t.Fatal(err)
			}
			if heavy := batch[0].Edge.Weight == 1e9; heavy != (stats.DijkstraRuns == 0) {
				t.Fatalf("epoch %d: %d global searches; only the heavy batch should skip them", next1.Epoch(), stats.DijkstraRuns)
			}
		}
		patched, err := Encode(next1)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := Encode(rebuilt(t, next1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(patched, scratch) {
			t.Fatalf("epoch %d: snapshot of the patched store differs from the from-scratch build's (%d vs %d bytes)", next1.Epoch(), len(patched), len(scratch))
		}
	}
}

// rebuilt builds st's deployment again from nothing but its edge sets —
// a new base graph, fragment.New's validated partition, dsa.Build's
// preprocessing — and stamps it with st's epoch and preprocessing
// report, the two header fields an update history shows in.
func rebuilt(t *testing.T, st *dsa.Store) *dsa.Store {
	t.Helper()
	old := st.Fragmentation()
	nb := graph.New()
	for _, id := range old.Base().Nodes() {
		nb.AddNode(id, old.Base().Coord(id))
	}
	sets := make([][]graph.Edge, old.NumFragments())
	for i, f := range old.Fragments() {
		sets[i] = f.Edges
		for _, e := range f.Edges {
			nb.AddEdge(e)
		}
	}
	fr, err := fragment.New(nb, sets)
	if err != nil {
		t.Fatal(err)
	}
	opt := dsa.Options{MaxChains: st.MaxChains(), Problem: st.Problem()}
	fresh, err := dsa.Build(fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := dsa.Restore(fr, fresh.CompTables(), opt, st.Epoch(), st.Preprocessing())
	if err != nil {
		t.Fatal(err)
	}
	return stamped
}

func TestDecodeRejectsCorruption(t *testing.T) {
	st, _ := roadStore(t, dsa.Options{}, 23)
	valid, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("valid image refused: %v", err)
	}

	flip := func(off int) []byte {
		b := bytes.Clone(valid)
		b[off] ^= 0x40
		return b
	}
	cases := map[string][]byte{
		"empty":           {},
		"short":           valid[:headerSize-1],
		"bad magic":       flip(0),
		"bad crc":         flip(9),
		"flipped body":    flip(headerSize + 3),
		"flipped trailer": flip(len(valid) - 2),
		"truncated":       valid[:len(valid)-1],
		"trailing bytes":  append(bytes.Clone(valid), 0),
		// A previous version's magic under a fresh checksum: there is no
		// migration path, so it is refused like any foreign file.
		"v01 image": func() []byte {
			b := bytes.Clone(valid)
			copy(b, "TCSFv01\n")
			binary.LittleEndian.PutUint32(b[8:12], crc32.ChecksumIEEE(b[16:]))
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: Decode = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// TestRoundTripKeepsNegativeWeightRefusal: a fragment may carry a
// negative weight (graph files do not validate signs). The snapshot
// keeps no kernel, so the restored site builds its CSR on first use
// exactly as the built one did: the dense and bitset legs refuse with
// ErrNegativeWeight and Dijkstra still answers, with the built store's
// answer.
func TestRoundTripKeepsNegativeWeightRefusal(t *testing.T) {
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode(graph.NodeID(i), graph.Coord{X: float64(i)})
	}
	e1 := graph.Edge{From: 0, To: 1, Weight: -2}
	e2 := graph.Edge{From: 1, To: 2, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1, e2}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(fr, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []dsa.Engine{dsa.EngineDense, dsa.EngineBitset} {
		if _, err := runPair(loaded, 0, 2, eng); !errors.Is(err, dsa.ErrNegativeWeight) {
			t.Errorf("restored %v query over a negative weight: %v, want ErrNegativeWeight", eng, err)
		}
	}
	want, err := runPair(st, 0, 2, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runPair(loaded, 0, 2, dsa.EngineDijkstra)
	if err != nil {
		t.Fatalf("restored dijkstra query: %v", err)
	}
	if !got.Reachable || got.Reachable != want.Reachable || got.Cost != want.Cost {
		t.Fatalf("restored dijkstra: (%v, %g), built (%v, %g)", got.Reachable, got.Cost, want.Reachable, want.Cost)
	}
}

// TestDecodeChecksComplementaryTables: a well-formed, correctly
// checksummed image whose complementary section disagrees with its own
// fragmentation — a node list that is not the disconnection set, a
// table for a pair that has none, a missing table, rows out of order or
// between foreign nodes — is refused, not deployed.
func TestDecodeChecksComplementaryTables(t *testing.T) {
	st, _ := roadStore(t, dsa.Options{}, 31)
	fr := st.Fragmentation()
	var pair fragment.Pair
	for p, ci := range st.CompTables() {
		if len(ci.Cost) >= 2 {
			pair = p
		}
	}
	with := func(edit func(map[fragment.Pair]*dsa.CompInfo)) []byte {
		comp := maps.Clone(st.CompTables())
		edit(comp)
		tampered, err := dsa.Restore(fr, comp, dsa.Options{}, st.Epoch(), st.Preprocessing())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(tampered)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	valid := with(func(map[fragment.Pair]*dsa.CompInfo) {})
	if _, err := Decode(valid); err != nil {
		t.Fatalf("untampered image refused: %v", err)
	}

	// The stored node list of one table, found by its encoding (pair,
	// count, then the ids) and bent by one id under a fresh checksum.
	nodes := fr.DisconnectionSet(pair.I, pair.J)
	var needle []byte
	for _, v := range []int{pair.I, pair.J, len(nodes)} {
		needle = binary.LittleEndian.AppendUint64(needle, uint64(v))
	}
	for _, id := range nodes {
		needle = binary.LittleEndian.AppendUint64(needle, uint64(id))
	}
	at := bytes.Index(valid, needle)
	if at < 0 || bytes.Count(valid, needle) != 1 {
		t.Fatal("node list of the table not found exactly once in the image")
	}
	bent := bytes.Clone(valid)
	bent[at+len(needle)-8]++
	binary.LittleEndian.PutUint32(bent[8:12], crc32.ChecksumIEEE(bent[16:]))

	cases := map[string][]byte{
		"node list is not the disconnection set": bent,
		"missing table":                          with(func(c map[fragment.Pair]*dsa.CompInfo) { delete(c, pair) }),
		"table under a pair with no disconnection set": with(func(c map[fragment.Pair]*dsa.CompInfo) {
			c[fragment.Pair{I: pair.J, J: pair.I}] = c[pair]
			delete(c, pair)
		}),
		"row between nodes outside the set": with(func(c map[fragment.Pair]*dsa.CompInfo) {
			rows := slices.Clone(c[pair].Cost)
			rows[len(rows)-1].To = 1 << 40
			c[pair] = &dsa.CompInfo{Pair: pair, Cost: rows}
		}),
		"rows out of order": with(func(c map[fragment.Pair]*dsa.CompInfo) {
			rows := slices.Clone(c[pair].Cost)
			rows[0], rows[1] = rows[1], rows[0]
			c[pair] = &dsa.CompInfo{Pair: pair, Cost: rows}
		}),
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: Decode = %v, want ErrBadSnapshot", name, err)
		}
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	st, _ := roadStore(t, dsa.Options{}, 29)
	valid, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must be refused — no length field may walk
	// past the data it actually has. Stride keeps the test fast.
	for n := 0; n < len(valid); n += 97 {
		if _, err := Decode(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestSaveFileIsAtomic(t *testing.T) {
	st, _ := roadStore(t, dsa.Options{}, 31)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.tcs")
	n, err := SaveFile(path, st)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("SaveFile reported %d bytes, file has %d", n, fi.Size())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file left behind: %d entries", len(entries))
	}
	// Same image twice → same bytes: the format is deterministic, so
	// checkpoints are reproducible and diffable.
	b1, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("Encode and SaveFile produced different bytes")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.tcs")); err == nil {
		t.Fatal("expected an error for a missing file")
	}
}

func TestRoundTripInfinityWeightsStayFinite(t *testing.T) {
	// Unreachable costs are +Inf at query time but must never be
	// serialized as edge weights; a quick sanity pass over the oracle
	// on a disconnected-ish graph (MaxChains 1 restricts routing).
	st, g := roadStore(t, dsa.Options{MaxChains: 1}, 37)
	b, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPair(loaded, 0, graph.NodeID(g.NumNodes()-1), dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable && math.IsInf(res.Cost, 1) {
		t.Fatal("reachable with infinite cost")
	}
	assertSameAnswers(t, st, loaded, g, 40, 5)
}
