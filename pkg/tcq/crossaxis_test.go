package tcq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/fragment/bea"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
)

// crossConfig is one way of asking the facade the same question.
type crossConfig struct {
	mode   Mode
	engine Engine
}

func (c crossConfig) String() string { return c.mode.String() + "/" + c.engine.String() }

// crossConfigs enumerates every legal (mode, engine) pair from dsa's
// engine table — connectivity takes any engine, cost a cost-capable
// one, pipelined a vector-seeded one — plus the planner's own choice
// for each mode. An engine added to the table joins the loop unasked.
func crossConfigs(t *testing.T) []crossConfig {
	t.Helper()
	configs := []crossConfig{{ModeConnectivity, EngineAuto}, {ModeCost, EngineAuto}, {ModePipelined, EngineAuto}}
	for _, d := range dsa.Engines() {
		e, err := ParseEngine(d.String())
		if err != nil {
			t.Fatalf("engine table row %v has no facade engine: %v", d, err)
		}
		configs = append(configs, crossConfig{ModeConnectivity, e})
		if d.CostCapable() {
			configs = append(configs, crossConfig{ModeCost, e})
		}
		if d.VectorSeeded() {
			configs = append(configs, crossConfig{ModePipelined, e})
		}
	}
	return configs
}

// crossTally is what the smoke counts: how much it checked, and what it
// saw on cyclic generations without failing on it (ROADMAP item 2).
type crossTally struct {
	generations, cyclic, checks int
	inexact, missed             int
}

// TestCrossAxisExactness is the first loop that crosses the axes the
// per-package properties each hold fixed: topology × fragmenter ×
// (mode, engine) × {fresh build, after three random update batches,
// that generation saved and mmap-loaded}, every answer against
// Dijkstra on the generation's own base graph. On every generation: no
// phantom Reachable, no cost below the true one, and all
// configurations agree with each other. On a loosely connected
// generation answers are exact and complete. On a cyclic one the
// inexact costs and the unreachable answers for reachable pairs (with
// Truncated unset) are counted and logged — the known gap of ROADMAP
// item 2, whose fix turns that log line into an error.
func TestCrossAxisExactness(t *testing.T) {
	ctx := context.Background()
	configs := crossConfigs(t)
	var tally crossTally

	topologies := []struct {
		name string
		make func(seed int64) (*graph.Graph, error)
	}{
		{"transportation", func(seed int64) (*graph.Graph, error) {
			return gen.Transportation(gen.TransportConfig{Clusters: 3, Cluster: gen.Defaults(8, seed)})
		}},
		{"general", func(seed int64) (*graph.Graph, error) { return gen.General(gen.Defaults(20, seed)) }},
		{"grid", func(seed int64) (*graph.Graph, error) {
			return gen.Grid(gen.GridConfig{Width: 5, Height: 4, DiagonalProb: 0.2, Seed: seed})
		}},
	}
	fragmenters := []struct {
		name string
		make func(g *graph.Graph, seed int64) (*fragment.Fragmentation, error)
	}{
		{"linear", func(g *graph.Graph, _ int64) (*fragment.Fragmentation, error) {
			res, err := linear.Fragment(g, linear.Options{NumFragments: 3})
			if err != nil {
				return nil, err
			}
			return res.Fragmentation, nil
		}},
		{"center", func(g *graph.Graph, seed int64) (*fragment.Fragmentation, error) {
			return center.Fragment(g, center.Options{NumFragments: 3, Seed: seed})
		}},
		{"bea", func(g *graph.Graph, _ int64) (*fragment.Fragmentation, error) {
			return bea.Fragment(g, bea.Options{})
		}},
		{"round-robin", func(g *graph.Graph, _ int64) (*fragment.Fragmentation, error) {
			sets := make([][]graph.Edge, 3)
			for i, e := range g.Edges() {
				sets[i%3] = append(sets[i%3], e)
			}
			return fragment.New(g, sets)
		}},
	}

	for _, seed := range []int64{1, 2} {
		for _, topo := range topologies {
			g, err := topo.make(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", topo.name, seed, err)
			}
			for _, fragger := range fragmenters {
				label := fmt.Sprintf("%s/%s/seed %d", topo.name, fragger.name, seed)
				fr, err := fragger.make(g, seed)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ds, err := NewDataset(fr, BuildOptions{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				rng := rand.New(rand.NewSource(seed))
				crossCheck(ctx, t, label+"/fresh", ds, configs, rng, &tally)

				for b := 0; b < 3; b++ {
					if _, err := ds.Apply(ctx, randomBatch(rng, ds.Snapshot().Store().Fragmentation())); err != nil {
						t.Fatalf("%s: batch %d: %v", label, b, err)
					}
				}
				crossCheck(ctx, t, label+"/applied", ds, configs, rng, &tally)

				path := filepath.Join(t.TempDir(), "gen.tcsf")
				if _, err := SaveSnapshot(path, ds.Snapshot()); err != nil {
					t.Fatalf("%s: save: %v", label, err)
				}
				loaded, err := LoadSnapshot(path)
				if err != nil {
					t.Fatalf("%s: load: %v", label, err)
				}
				crossCheck(ctx, t, label+"/loaded", loaded, configs, rng, &tally)
				if err := loaded.Close(); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
			}
		}
	}
	if tally.checks < 5000 || tally.cyclic == 0 || tally.cyclic == tally.generations {
		t.Errorf("smoke lost its coverage: %+v (want ≥ 5000 checks over both loosely connected and cyclic generations)", tally)
	}
	t.Logf("cross-axis: %d configurations, %d checks over %d generations (%d cyclic); on cyclic generations %d inexact costs and %d reachable pairs answered Reachable=false, Truncated=false",
		len(configs), tally.checks, tally.generations, tally.cyclic, tally.inexact, tally.missed)
}

// randomBatch draws one insert and one delete against fr: an edge
// between two existing nodes into a random fragment, and a stored edge
// out of a fragment that keeps at least one more.
func randomBatch(rng *rand.Rand, fr *fragment.Fragmentation) *Batch {
	nodes := fr.Base().Nodes()
	b := &Batch{}
	from, to := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
	b.Insert(rng.Intn(fr.NumFragments()), int(from), int(to), 0.5+2*rng.Float64())
	for _, k := range rng.Perm(fr.NumFragments()) {
		if edges := fr.Fragments()[k].Edges; len(edges) > 1 {
			e := edges[rng.Intn(len(edges))]
			b.Delete(k, int(e.From), int(e.To), e.Weight)
			break
		}
	}
	return b
}

// crossCheck asks every configuration for a 4×4 block of pairs on the
// dataset's current generation and holds the answers against Dijkstra
// on that generation's base graph and against each other.
func crossCheck(ctx context.Context, t *testing.T, label string, ds *Dataset, configs []crossConfig, rng *rand.Rand, tally *crossTally) {
	t.Helper()
	snap := ds.Snapshot()
	fr := snap.Store().Fragmentation()
	loose := snap.Store().LooselyConnected()
	tally.generations++
	if !loose {
		tally.cyclic++
	}
	var hosted []int // nodes some fragment holds; an isolated node cannot be planned for
	for _, n := range fr.Base().Nodes() {
		if len(fr.FragmentsOf(n)) > 0 {
			hosted = append(hosted, int(n))
		}
	}
	draw := func() []int {
		out := make([]int, 4)
		for i := range out {
			out[i] = hosted[rng.Intn(len(hosted))]
		}
		return out
	}
	sources, targets := draw(), draw()
	want := make(map[[2]int]float64) // absent = unreachable
	for _, s := range sources {
		dist, _ := fr.Base().ShortestPaths(graph.NodeID(s))
		for _, d := range targets {
			if c, ok := dist[graph.NodeID(d)]; ok {
				want[[2]int{s, d}] = c
			}
		}
	}
	client, err := ds.Open()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	first := make(map[[2]int]Answer) // the first configuration's answer, and the first cost answer
	firstCost := make(map[[2]int]Answer)
	for _, cfg := range configs {
		res, err := client.Query(ctx, Request{Sources: sources, Targets: targets, Mode: cfg.mode, Engine: cfg.engine})
		if err != nil {
			t.Fatalf("%s %v: %v", label, cfg, err)
		}
		for _, a := range res.Answers {
			tally.checks++
			pair := [2]int{a.Source, a.Target}
			truth, reachable := want[pair]
			costed := cfg.mode != ModeConnectivity && a.Reachable
			switch {
			case a.Reachable && !reachable:
				t.Errorf("%s %v %v: phantom Reachable (cost %v), Dijkstra reaches nothing", label, cfg, pair, a.Cost)
			case costed && a.Cost < truth && !same(a.Cost, truth):
				t.Errorf("%s %v %v: cost %v undershoots Dijkstra's %v", label, cfg, pair, a.Cost, truth)
			case loose && a.Reachable != reachable:
				t.Errorf("%s %v %v: loosely connected store answers Reachable=%v, Dijkstra %v", label, cfg, pair, a.Reachable, reachable)
			case loose && costed && !same(a.Cost, truth):
				t.Errorf("%s %v %v: loosely connected store answers cost %v, Dijkstra %v", label, cfg, pair, a.Cost, truth)
			case !a.Reachable && reachable && !a.Truncated:
				tally.missed++
			case costed && !same(a.Cost, truth):
				tally.inexact++
			}
			if ref, seen := first[pair]; !seen {
				first[pair] = a
			} else if ref.Reachable != a.Reachable {
				t.Errorf("%s %v: %v answers Reachable=%v, %v answered %v", label, pair, cfg, a.Reachable, configs[0], ref.Reachable)
			}
			if cfg.mode == ModeConnectivity {
				continue
			}
			if ref, seen := firstCost[pair]; !seen {
				firstCost[pair] = a
			} else if ref.Reachable && a.Reachable && !same(a.Cost, ref.Cost) {
				t.Errorf("%s %v: %v answers cost %v, the first cost configuration %v", label, pair, cfg, a.Cost, ref.Cost)
			}
		}
	}
}
