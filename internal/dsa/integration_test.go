package dsa

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/fragment"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPipelineDeterminism: the same seed yields byte-identical plans
// and costs across runs — required for reproducible experiments.
func TestPipelineDeterminism(t *testing.T) {
	build := func() (*Store, *graph.Graph) {
		g, err := gen.Transportation(gen.TransportConfig{Clusters: 3, Cluster: gen.Defaults(10, 77)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := linear.Fragment(g, linear.Options{NumFragments: 3})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Build(res.Fragmentation, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st, g
	}
	st1, g1 := build()
	st2, _ := build()
	nodes := g1.Nodes()
	for q := 0; q < 5; q++ {
		src := nodes[(q*13)%len(nodes)]
		dst := nodes[(q*29+7)%len(nodes)]
		r1, err := runPair(st1, src, dst, EngineDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := runPair(st2, src, dst, EngineDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cost != r2.Cost || r1.ChainsConsidered != r2.ChainsConsidered {
			t.Errorf("nondeterministic pipeline: %v vs %v", r1, r2)
		}
	}
}

// TestStressManyFragments: a 16-fragment chain still plans, executes
// and assembles correctly.
func TestStressManyFragments(t *testing.T) {
	g := graph.New()
	const n = 64
	var sets [][]graph.Edge
	for i := 0; i < n; i++ {
		e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1}
		rev := e.Reverse()
		g.AddEdge(e)
		g.AddEdge(rev)
		if i%4 == 0 {
			sets = append(sets, nil)
		}
		sets[len(sets)-1] = append(sets[len(sets)-1], e, rev)
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Fragmentation().NumFragments(); got != 16 {
		t.Fatalf("fragments = %d", got)
	}
	res, err := runPair(st, 0, n, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || res.Cost != float64(n) {
		t.Errorf("cost = %v, want %d", res.Cost, n)
	}
	if len(res.BestChain) != 16 {
		t.Errorf("chain length = %d, want 16", len(res.BestChain))
	}
	if len(res.PerSite) != 16 {
		t.Errorf("sites used = %d, want 16", len(res.PerSite))
	}
}

func TestConcurrentQueriesAreSafe(t *testing.T) {
	// Stores are immutable at query time; many goroutines hammering the
	// same store must agree with the sequential answers (run under
	// -race in CI to catch data races).
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 3, Cluster: gen.Defaults(12, 55)})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := linear.Fragment(g, linear.Options{NumFragments: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(lres.Fragmentation, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	type q struct {
		src, dst graph.NodeID
		want     float64
		wantOK   bool
	}
	queries := make([]q, 16)
	for i := range queries {
		src := nodes[(i*7)%len(nodes)]
		dst := nodes[(i*13+3)%len(nodes)]
		res, err := runPair(st, src, dst, EngineDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q{src: src, dst: dst, want: res.Cost, wantOK: res.Reachable}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qq := queries[(worker*8+i)%len(queries)]
				res, err := runPair(st, qq.src, qq.dst, EngineDijkstra)
				if err != nil {
					errs <- err
					return
				}
				if res.Reachable != qq.wantOK || (res.Reachable && math.Abs(res.Cost-qq.want) > 1e-9) {
					errs <- fmt.Errorf("concurrent query %d→%d diverged: %v vs %v", qq.src, qq.dst, res.Cost, qq.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
