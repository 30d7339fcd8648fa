package fragment

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// twoCluster builds the simplest fragmentable graph: two triangles
// sharing node 2 ({0,1,2} and {2,3,4}).
func twoCluster() (*graph.Graph, [][]graph.Edge) {
	g := graph.New()
	left := []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1},
	}
	right := []graph.Edge{
		{From: 2, To: 3, Weight: 1}, {From: 3, To: 4, Weight: 1}, {From: 4, To: 2, Weight: 1},
	}
	for _, e := range append(append([]graph.Edge{}, left...), right...) {
		g.AddEdge(e)
	}
	return g, [][]graph.Edge{left, right}
}

func TestNewValidPartition(t *testing.T) {
	g, sets := twoCluster()
	fr, err := New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumFragments() != 2 {
		t.Fatalf("fragments = %d", fr.NumFragments())
	}
	if fr.Fragment(0).Size() != 3 || fr.Fragment(1).Size() != 3 {
		t.Error("fragment sizes wrong")
	}
	if !reflect.DeepEqual(fr.Fragment(0).Nodes(), []graph.NodeID{0, 1, 2}) {
		t.Errorf("fragment 0 nodes = %v", fr.Fragment(0).Nodes())
	}
}

func TestNewRejectsBadPartitions(t *testing.T) {
	g, sets := twoCluster()
	t.Run("nil graph", func(t *testing.T) {
		if _, err := New(nil, sets); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("no fragments", func(t *testing.T) {
		if _, err := New(g, nil); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("empty fragment", func(t *testing.T) {
		if _, err := New(g, [][]graph.Edge{sets[0], nil}); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("missing edge", func(t *testing.T) {
		if _, err := New(g, [][]graph.Edge{sets[0], sets[1][:2]}); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("duplicated edge", func(t *testing.T) {
		dup := append(append([]graph.Edge{}, sets[1]...), sets[0][0])
		if _, err := New(g, [][]graph.Edge{sets[0], dup}); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("foreign edge", func(t *testing.T) {
		foreign := append(append([]graph.Edge{}, sets[1]...), graph.Edge{From: 90, To: 91})
		if _, err := New(g, [][]graph.Edge{sets[0], foreign}); err == nil {
			t.Error("accepted")
		}
	})
}

func TestDisconnectionSets(t *testing.T) {
	g, sets := twoCluster()
	fr, err := New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	ds := fr.DisconnectionSets()
	if len(ds) != 1 || !reflect.DeepEqual(fr.DisconnectionPairs(), []Pair{{I: 0, J: 1}}) {
		t.Fatalf("ds = %v under %v", ds, fr.DisconnectionPairs())
	}
	got := ds[0]
	if !reflect.DeepEqual(got, []graph.NodeID{2}) {
		t.Errorf("DS01 = %v, want [2]", got)
	}
	if !reflect.DeepEqual(fr.DisconnectionSet(1, 0), []graph.NodeID{2}) {
		t.Error("DisconnectionSet should normalise pair order")
	}
	if fr.DisconnectionSet(0, 0) != nil {
		t.Error("DS_ii should be empty")
	}
}

func TestFragmentsOf(t *testing.T) {
	g, sets := twoCluster()
	fr, _ := New(g, sets)
	if got := fr.FragmentsOf(2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("FragmentsOf(2) = %v", got)
	}
	if got := fr.FragmentsOf(0); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("FragmentsOf(0) = %v", got)
	}
	if got := fr.FragmentsOf(99); got != nil {
		t.Errorf("FragmentsOf(unknown) = %v", got)
	}
	// Both readers hand out slices of shared tables, clipped: an append
	// to one result copies instead of writing over its neighbour's.
	_ = append(fr.FragmentsOf(1), 7)
	if got := fr.FragmentsOf(2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("FragmentsOf(2) after an append to FragmentsOf(1) = %v", got)
	}
	for _, f := range fr.Fragments() {
		if ns := f.Nodes(); cap(ns) != len(ns) {
			t.Errorf("fragment %d: Nodes() has cap %d > len %d", f.ID, cap(ns), len(ns))
		}
	}
}

// TestPatch walks the patch API on the two-triangle graph plus an
// isolated node: edits are visible to the patch as they are made, the
// patched fragmentation has them in edge order and in its base graph,
// keeps the node table, isolated node included, and equals a New over
// its final edge sets; the fragmentation it came from has none of the
// edits, and a patch that empties a fragment is refused. (Equality
// with a from-scratch New over random edit series is internal/dsa's
// structural oracle.)
func TestPatch(t *testing.T) {
	g, sets := twoCluster()
	lone, at := graph.NodeID(9), graph.Coord{X: 3, Y: -2}
	g.AddNode(lone, at)
	fr, err := New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	keepsTable := func(name string, fr *Fragmentation) {
		t.Helper()
		if !fr.HasNode(lone) || fr.Coord(lone) != at || !slices.Equal(fr.Nodes(), []graph.NodeID{0, 1, 2, 3, 4, lone}) {
			t.Errorf("%s: HasNode(%d) = %v at %+v, Nodes() = %v; want the isolated node kept at %+v",
				name, lone, fr.HasNode(lone), fr.Coord(lone), fr.Nodes(), at)
		}
	}
	keepsTable("New", fr)
	add := graph.Edge{From: 0, To: 4, Weight: 2} // pulls 4 into fragment 0
	gone := graph.Edge{From: 3, To: 4, Weight: 1}
	p := fr.NewPatch()
	if p.Touched(0) || p.Size(0) != 3 || p.Contains(0, add) || !p.Contains(1, gone) {
		t.Fatal("a fresh patch must mirror the fragmentation")
	}
	p.Insert(0, add)
	if !p.Touched(0) || p.Touched(1) || p.Size(0) != 4 || !p.Contains(0, add) {
		t.Error("insert not visible to the patch")
	}
	if p.Delete(0, gone) {
		t.Error("deleted an edge of another fragment")
	}
	if !p.Delete(1, gone) || p.Contains(1, gone) || p.Size(1) != 2 {
		t.Error("delete not visible to the patch")
	}
	next, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := []graph.Edge{{From: 0, To: 1, Weight: 1}, add, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1}}
	if !reflect.DeepEqual(next.Fragment(0).Edges, wantEdges) {
		t.Errorf("patched fragment 0 = %v, want %v", next.Fragment(0).Edges, wantEdges)
	}
	if got := next.DisconnectionSet(0, 1); !reflect.DeepEqual(got, []graph.NodeID{2, 4}) {
		t.Errorf("patched DS01 = %v, want [2 4]", got)
	}
	if !next.Base().HasEdge(0, 4) || next.Base().HasEdge(3, 4) || next.Base().NumEdges() != 6 {
		t.Errorf("patched base = %v", next.Base().Edges())
	}
	keepsTable("patched", next)
	final := graph.New()
	final.AddNode(lone, at)
	for _, f := range next.Fragments() {
		for _, e := range f.Edges {
			final.AddEdge(e)
		}
	}
	fresh, err := New(final, [][]graph.Edge{next.Fragment(0).Edges, next.Fragment(1).Edges})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := next.Base().Edges(), fresh.Base().Edges(); !slices.Equal(got, want) {
		t.Errorf("patched base edges = %v, want New's %v", got, want)
	}
	if fr.Fragment(0).Size() != 3 || fr.Base().HasEdge(0, 4) || !fr.Base().HasEdge(3, 4) ||
		!reflect.DeepEqual(fr.DisconnectionSet(0, 1), []graph.NodeID{2}) {
		t.Error("patching changed the fragmentation it started from")
	}

	q := fr.NewPatch()
	for _, e := range sets[1] {
		q.Delete(1, e)
	}
	if _, err := q.Apply(); err == nil {
		t.Error("a patch that empties fragment 1 was accepted")
	}

	// Edits that cancel out leave fragment 0's edge set as it was, so
	// Apply shares the fragment by pointer; a lone parallel edge is a
	// change.
	edge01, fresh02, heavy01 := graph.Edge{From: 0, To: 1, Weight: 1}, graph.Edge{From: 0, To: 2, Weight: 3}, graph.Edge{From: 0, To: 1, Weight: 5}
	for _, c := range []struct {
		name   string
		edits  func(p *Patch)
		shared bool
	}{
		{"insert then delete a new edge", func(p *Patch) { p.Insert(0, fresh02); p.Delete(0, fresh02) }, true},
		{"delete then re-insert an existing edge", func(p *Patch) { p.Delete(0, edge01); p.Insert(0, edge01) }, true},
		{"insert a duplicate then delete one copy", func(p *Patch) { p.Insert(0, edge01); p.Delete(0, edge01) }, true},
		{"a lone heavier parallel edge", func(p *Patch) { p.Insert(0, heavy01) }, false},
	} {
		p := fr.NewPatch()
		c.edits(p)
		next, err := p.Apply()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := next.Fragment(0) == fr.Fragment(0); got != c.shared || p.Touched(0) == c.shared {
			t.Errorf("%s: fragment shared %v, Touched %v; want shared %v", c.name, got, p.Touched(0), c.shared)
		}
	}
}

func TestMakePair(t *testing.T) {
	if MakePair(3, 1) != (Pair{I: 1, J: 3}) {
		t.Error("MakePair should normalise")
	}
}

// chainGraph builds a path of k unit fragments: fragment i is the single
// edge i->i+1, so DS_{i,i+1} = {i+1}.
func chainGraph(k int) (*graph.Graph, [][]graph.Edge) {
	g := graph.New()
	var sets [][]graph.Edge
	for i := 0; i < k; i++ {
		e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1}
		g.AddEdge(e)
		sets = append(sets, []graph.Edge{e})
	}
	return g, sets
}

func TestFragmentationGraphChain(t *testing.T) {
	g, sets := chainGraph(4)
	fr, err := New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	fg := fr.FragmentationGraph()
	if fg.NumFragments() != 4 || len(fr.DisconnectionPairs()) != 3 {
		t.Fatalf("G' = %d nodes, %d links", fg.NumFragments(), len(fr.DisconnectionPairs()))
	}
	if !fg.IsLooselyConnected() || fg.CycleCount() != 0 {
		t.Error("chain should be loosely connected")
	}
	chains, err := fg.Chains(0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 || !reflect.DeepEqual(chains[0], []int{0, 1, 2, 3}) {
		t.Errorf("chains = %v", chains)
	}
}

// cycleFragmentation builds a ring of k single-edge fragments, whose
// fragmentation graph is a k-cycle.
func cycleFragmentation(k int) *Fragmentation {
	g := graph.New()
	var sets [][]graph.Edge
	for i := 0; i < k; i++ {
		e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID((i + 1) % k), Weight: 1}
		g.AddEdge(e)
		sets = append(sets, []graph.Edge{e})
	}
	fr, err := New(g, sets)
	if err != nil {
		panic(err)
	}
	return fr
}

func TestFragmentationGraphCycle(t *testing.T) {
	fr := cycleFragmentation(4)
	fg := fr.FragmentationGraph()
	if fg.IsLooselyConnected() {
		t.Error("ring fragmentation reported loosely connected")
	}
	if fg.CycleCount() != 1 {
		t.Errorf("cycles = %d, want 1", fg.CycleCount())
	}
	chains, err := fg.Chains(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 2 {
		t.Fatalf("ring should give 2 chains, got %v", chains)
	}
	// Bounded enumeration.
	chains, err = fg.Chains(0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 {
		t.Errorf("maxChains=1 returned %d chains", len(chains))
	}
}

func TestChainsSameFragment(t *testing.T) {
	fr := cycleFragmentation(3)
	chains, err := fr.FragmentationGraph().Chains(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 || !reflect.DeepEqual(chains[0], []int{1}) {
		t.Errorf("self chain = %v", chains)
	}
}

func TestChainsRangeErrors(t *testing.T) {
	fr := cycleFragmentation(3)
	fg := fr.FragmentationGraph()
	if _, err := fg.Chains(-1, 2, 0); err == nil {
		t.Error("negative from accepted")
	}
	if _, err := fg.Chains(0, 5, 0); err == nil {
		t.Error("out-of-range to accepted")
	}
}

func TestChainsDisconnected(t *testing.T) {
	// Two separate single-edge fragments with no shared node.
	g := graph.New()
	e1 := graph.Edge{From: 0, To: 1, Weight: 1}
	e2 := graph.Edge{From: 10, To: 11, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := New(g, [][]graph.Edge{{e1}, {e2}})
	if err != nil {
		t.Fatal(err)
	}
	chains, err := fr.FragmentationGraph().Chains(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 0 {
		t.Errorf("chains across disconnected G' = %v", chains)
	}
}

func TestMeasureTwoCluster(t *testing.T) {
	g, sets := twoCluster()
	fr, _ := New(g, sets)
	c := Measure(fr)
	if c.F != 3 || c.AF != 0 {
		t.Errorf("F = %v, AF = %v, want 3, 0", c.F, c.AF)
	}
	if c.DS != 1 || c.ADS != 0 {
		t.Errorf("DS = %v, ADS = %v, want 1, 0", c.DS, c.ADS)
	}
	if !c.LooselyConnected || c.Cycles != 0 {
		t.Error("two-cluster should be loosely connected")
	}
	if c.NumFragments != 2 || c.NumDisconnectionSets != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestMeasureDeviation(t *testing.T) {
	// Fragments of sizes 1 and 3: F=2, AF = (|1-2|+|3-2|)/2 = 1.
	g := graph.New()
	a := []graph.Edge{{From: 0, To: 1, Weight: 1}}
	b := []graph.Edge{
		{From: 1, To: 2, Weight: 1}, {From: 2, To: 3, Weight: 1}, {From: 3, To: 1, Weight: 1},
	}
	for _, e := range append(append([]graph.Edge{}, a...), b...) {
		g.AddEdge(e)
	}
	fr, err := New(g, [][]graph.Edge{a, b})
	if err != nil {
		t.Fatal(err)
	}
	c := Measure(fr)
	if c.F != 2 || c.AF != 1 {
		t.Errorf("F = %v, AF = %v, want 2, 1", c.F, c.AF)
	}
}

func TestMeasureSingleFragment(t *testing.T) {
	g := graph.New()
	e := graph.Edge{From: 0, To: 1, Weight: 1}
	g.AddEdge(e)
	fr, err := New(g, [][]graph.Edge{{e}})
	if err != nil {
		t.Fatal(err)
	}
	c := Measure(fr)
	if c.DS != 0 || c.NumDisconnectionSets != 0 {
		t.Errorf("single fragment DS stats = %+v", c)
	}
	if !c.LooselyConnected {
		t.Error("single fragment must be loosely connected")
	}
}

func TestAverage(t *testing.T) {
	cs := []Characteristics{
		{F: 2, DS: 1, AF: 0, ADS: 0, Cycles: 0, NumFragments: 2, NumDisconnectionSets: 1, LooselyConnected: true},
		{F: 4, DS: 3, AF: 2, ADS: 1, Cycles: 2, NumFragments: 4, NumDisconnectionSets: 3, LooselyConnected: false},
	}
	avg := Average(cs)
	if avg.F != 3 || avg.DS != 2 || avg.AF != 1 || avg.ADS != 0.5 {
		t.Errorf("avg = %+v", avg)
	}
	if avg.Cycles != 1 || avg.NumFragments != 3 || avg.NumDisconnectionSets != 2 {
		t.Errorf("avg counts = %+v", avg)
	}
	if avg.LooselyConnected {
		t.Error("majority not loose")
	}
	if got := Average(nil); got != (Characteristics{}) {
		t.Errorf("Average(nil) = %+v", got)
	}
}

func TestCharacteristicsString(t *testing.T) {
	c := Characteristics{F: 3, DS: 1, LooselyConnected: true}
	s := c.String()
	if s == "" || !contains(s, "F=3.0") || !contains(s, "loosely connected") {
		t.Errorf("String() = %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestSubgraphKeepsCoordinates(t *testing.T) {
	g, sets := twoCluster()
	g.AddNode(2, graph.Coord{X: 5, Y: 6})
	fr, _ := New(g, sets)
	sub := fr.Fragment(1).Subgraph(g)
	if c := sub.Coord(2); c.X != 5 || c.Y != 6 {
		t.Errorf("subgraph coord = %+v", c)
	}
	if sub.NumEdges() != 3 {
		t.Errorf("subgraph edges = %d", sub.NumEdges())
	}
}

// randomPartition splits a random graph's edges into k non-empty chunks
// round-robin; not a sensible fragmentation, but a valid partition.
func randomPartition(rng *rand.Rand, g *graph.Graph, k int) [][]graph.Edge {
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if k > len(edges) {
		k = len(edges)
	}
	sets := make([][]graph.Edge, k)
	for i, e := range edges {
		sets[i%k] = append(sets[i%k], e)
	}
	return sets
}

// TestPropertyPartitionInvariants: for any valid partition, fragment
// sizes sum to |E|, every DS_ij equals V_i ∩ V_j computed naively, and
// border nodes appear in ≥ 2 fragments.
func TestPropertyPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		n := 4 + rng.Intn(15)
		for i := 0; i < n; i++ {
			g.AddNode(graph.NodeID(i), graph.Coord{})
		}
		for i := 1; i < n; i++ {
			g.AddEdge(graph.Edge{From: graph.NodeID(rng.Intn(i)), To: graph.NodeID(i), Weight: 1})
		}
		for e := 0; e < n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b && !g.HasEdge(graph.NodeID(a), graph.NodeID(b)) {
				g.AddEdge(graph.Edge{From: graph.NodeID(a), To: graph.NodeID(b), Weight: 1})
			}
		}
		k := 1 + rng.Intn(4)
		fr, err := New(g, randomPartition(rng, g, k))
		if err != nil {
			return false
		}
		total := 0
		for _, f := range fr.Fragments() {
			total += f.Size()
		}
		if total != g.NumEdges() {
			return false
		}
		// DS_ij = V_i ∩ V_j by definition, listed under pairs strictly
		// ascending by (I, J).
		pairs := fr.DisconnectionPairs()
		if len(pairs) != len(fr.DisconnectionSets()) {
			return false
		}
		for k, p := range pairs {
			if p.I >= p.J || k > 0 && comparePairs(pairs[k-1], p) >= 0 {
				return false
			}
			ds := fr.DisconnectionSets()[k]
			fi, fj := fr.Fragment(p.I), fr.Fragment(p.J)
			want := make(map[graph.NodeID]bool)
			for _, id := range fi.Nodes() {
				if fj.HasNode(id) {
					want[id] = true
				}
			}
			if len(want) != len(ds) {
				return false
			}
			for _, id := range ds {
				if !want[id] {
					return false
				}
			}
		}
		// Characteristics are internally consistent.
		c := Measure(fr)
		if c.NumFragments != fr.NumFragments() {
			return false
		}
		if math.IsNaN(c.F) || math.IsNaN(c.DS) || c.AF < 0 || c.ADS < 0 {
			return false
		}
		return c.LooselyConnected == (c.Cycles == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
