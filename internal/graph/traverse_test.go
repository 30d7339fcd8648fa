package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestStoppedSearchEqualsWholeSearch: a search given a stop set returns
// early, and every stop node in the snapshot holds the dist and pred
// cells of the whole (nil-stop) search, bit for bit, by cost and by
// hops. The graphs have zero and +Inf weights, parallel edges and
// self-loops; the stop sets hold the source, repeats, ids outside the
// snapshot and nodes the source does not reach. The same search
// function then runs whole again: the stop marks do not outlive their
// search.
func TestStoppedSearchEqualsWholeSearch(t *testing.T) {
	weights := []float64{0, 0.5, 1, 2, graph.Inf}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		n := 1 + rng.Intn(40)
		for i := range n {
			g.AddNode(graph.NodeID(2*i), graph.Coord{}) // odd ids are outside the snapshot
		}
		for range rng.Intn(3 * n) {
			u, v := graph.NodeID(2*rng.Intn(n)), graph.NodeID(2*rng.Intn(n))
			if rng.Intn(8) == 0 {
				v = u // self-loop
			}
			e := graph.Edge{From: u, To: v, Weight: weights[rng.Intn(len(weights))]}
			g.AddEdge(e)
			if rng.Intn(5) == 0 {
				e.Weight = weights[rng.Intn(len(weights))]
				g.AddEdge(e) // parallel
			}
		}
		c := g.CSR()
		searches := c.Searches(2)
		whole, stopped := searches[0], searches[1]
		for range 8 {
			src := graph.NodeID(2 * rng.Intn(n))
			var stop []graph.NodeID
			for range rng.Intn(6) {
				stop = append(stop, graph.NodeID(rng.Intn(2*n+4)-2))
			}
			switch rng.Intn(3) {
			case 0:
				stop = append(stop, src)
			case 1:
				if len(stop) > 0 {
					stop = append(stop, stop[0]) // a repeat
				}
			}
			for _, hops := range []bool{false, true} {
				name := fmt.Sprintf("seed %d: search(%d, %v, %v)", seed, src, hops, stop)
				_, d, p := whole(src, hops, nil)
				wantDist, wantPred := slices.Clone(d), slices.Clone(p)
				ids, dist, pred := stopped(src, hops, stop)
				for _, id := range stop {
					k, ok := c.Row(id)
					if !ok {
						continue
					}
					if dist[k] != wantDist[k] || pred[k] != wantPred[k] {
						t.Fatalf("%s: node %d at (%v, %d), the whole search has (%v, %d)", name, id, dist[k], pred[k], wantDist[k], wantPred[k])
					}
				}
				if ids, dist, pred = stopped(src, hops, nil); !slices.Equal(dist, wantDist) || !slices.Equal(pred, wantPred) {
					t.Fatalf("%s: the next whole search gave %v %v, want %v %v", name, dist, pred, wantDist, wantPred)
				}
				if !slices.Equal(ids, c.IDs) {
					t.Fatalf("%s: rows over %v, want the snapshot's %v", name, ids, c.IDs)
				}
			}
		}
		// Back to back on one function, which resets only what the
		// last search reached: stop sets alternate with nil and hops
		// with cost, each search held to a new function's whole row.
		chain := c.Searches(1)[0]
		for step := range 16 {
			src, hops := graph.NodeID(2*rng.Intn(n)), step/2%2 == 1
			var stop []graph.NodeID
			if step%2 == 0 {
				stop = []graph.NodeID{graph.NodeID(2 * rng.Intn(n)), graph.NodeID(rng.Intn(2*n+4) - 2)}
			}
			name := fmt.Sprintf("seed %d: step %d: search(%d, %v, %v)", seed, step, src, hops, stop)
			_, wantDist, wantPred := c.Searches(1)[0](src, hops, nil)
			_, dist, pred := chain(src, hops, stop)
			if stop == nil && (!slices.Equal(dist, wantDist) || !slices.Equal(pred, wantPred)) {
				t.Fatalf("%s: %v %v, want %v %v", name, dist, pred, wantDist, wantPred)
			}
			for k := range dist {
				if dist[k] < wantDist[k] || (dist[k] == graph.Inf) != (pred[k] == -1 && c.IDs[k] != src) {
					t.Fatalf("%s: row %d at (%v, %d), the whole search has (%v, %d)", name, k, dist[k], pred[k], wantDist[k], wantPred[k])
				}
			}
			for _, id := range stop {
				if k, ok := c.Row(id); ok && (dist[k] != wantDist[k] || pred[k] != wantPred[k]) {
					t.Fatalf("%s: node %d at (%v, %d), the whole search has (%v, %d)", name, id, dist[k], pred[k], wantDist[k], wantPred[k])
				}
			}
		}
	}
}

// TestStoppedSearchStops: on the chain 0→1→…→9, a search from 0 that
// stops at 2 leaves the far end unreached, and a stop set with no node
// in the snapshot searches the whole row.
func TestStoppedSearchStops(t *testing.T) {
	g := graph.New()
	for i := range graph.NodeID(10) {
		g.AddNode(i, graph.Coord{})
		if i > 0 {
			g.AddEdge(graph.Edge{From: i - 1, To: i, Weight: 1})
		}
	}
	search := g.Searches(1)[0]
	for _, hops := range []bool{false, true} {
		if _, dist, _ := search(0, hops, []graph.NodeID{2}); dist[2] != 2 || dist[9] != graph.Inf {
			t.Errorf("hops %v: stop at 2 gave dist %v, want 2 at node 2 and node 9 unreached", hops, dist)
		}
		if _, dist, _ := search(0, hops, []graph.NodeID{-1, 42}); dist[9] != 9 {
			t.Errorf("hops %v: a stop set outside the snapshot gave dist %v, want the whole row", hops, dist)
		}
	}
}
