package oracle

import (
	"fmt"
	"math/rand"

	"repro/internal/fragment"
	"repro/internal/fragment/bea"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/pkg/tcq"
)

// Topologies and Fragmenters name the generator's two graph axes, in
// shape order.
var (
	Topologies  = []string{"transportation", "general", "grid", "road"}
	Fragmenters = []string{"linear", "center", "bea", "round-robin", "figure-eight", "excursion"}
)

func topology(i int, seed int64) (*graph.Graph, error) {
	switch Topologies[i] {
	case "transportation":
		return gen.Transportation(gen.TransportConfig{Clusters: 3, Cluster: gen.Defaults(8, seed)})
	case "general":
		return gen.General(gen.Defaults(20, seed))
	case "grid":
		return gen.Grid(gen.GridConfig{Width: 5, Height: 4, DiagonalProb: 0.2, Seed: seed})
	}
	g, _, err := gen.RoadNetwork(gen.RoadConfig{Clusters: 3, ClusterWidth: 3, ClusterHeight: 3, Gateways: 2, DiagonalProb: 0.3, Seed: seed})
	return g, err
}

// fragmenter cuts g. The last two shapes bring their own graph — the two
// forms of ROADMAP item 1 — and the nodes whose pairs show them: a
// same-fragment pair whose route leaves the fragment through one
// disconnection set and returns through another, and a pair whose route
// crosses the middle fragment of a figure-eight fragmentation graph
// twice. One pair of each also has a dear direct route (answered
// inexactly), the others none (answered unreachable).
func fragmenter(i int, g *graph.Graph, rng *rand.Rand) (fr *fragment.Fragmentation, sources, targets []int, err error) {
	switch Fragmenters[i] {
	case "linear":
		var res *linear.Result
		if res, err = linear.Fragment(g, linear.Options{NumFragments: 3}); err == nil {
			fr = res.Fragmentation
		}
	case "center":
		fr, err = center.Fragment(g, center.Options{NumFragments: 3, Seed: rng.Int63()})
	case "bea":
		fr, err = bea.Fragment(g, bea.Options{})
	case "round-robin":
		sets := make([][]graph.Edge, 3)
		for i, e := range g.Edges() {
			sets[i%3] = append(sets[i%3], e)
		}
		fr, err = fragment.New(g, sets)
	case "excursion": // 0,1 → 2 ⇒ 6 ⇒ 3 → 4,5 with 2⇒6 and 6⇒3 in fragments of their own
		fr, err = gadget(rng, [][][2]int{{{0, 2}, {1, 2}, {3, 4}, {3, 5}, {0, 4}}, {{2, 6}}, {{6, 3}}})
		sources, targets = []int{0, 1}, []int{4, 5}
	case "figure-eight": // 0,1 → 2 → 3 ⇒ 4 ⇒ 5 → 6 → 7,8: fragment 1 holds 2→3 and 5→6
		fr, err = gadget(rng, [][][2]int{{{0, 2}, {1, 2}, {0, 9}}, {{2, 3}, {5, 6}}, {{3, 4}}, {{4, 5}}, {{6, 7}, {6, 8}, {9, 7}}})
		sources, targets = []int{0, 1}, []int{7, 8}
	}
	return fr, sources, targets, err
}

// gadget builds a graph from per-fragment edge lists: weights in [1, 3),
// except that a fragment's last edge, when it has three or more, is the
// dear one.
func gadget(rng *rand.Rand, frags [][][2]int) (*fragment.Fragmentation, error) {
	g := graph.New()
	sets := make([][]graph.Edge, len(frags))
	for i, pairs := range frags {
		for k, p := range pairs {
			e := graph.Edge{From: graph.NodeID(p[0]), To: graph.NodeID(p[1]), Weight: 1 + 2*rng.Float64()}
			if k == len(pairs)-1 && k >= 2 {
				e.Weight += 100
			}
			g.AddEdge(e)
			sets[i] = append(sets[i], e)
		}
	}
	return fragment.New(g, sets)
}

// New generates the generation (seed, shape) names. shape is a mixed
// radix number: topology, fragmenter, problem (shortest path,
// reachability), MaxChains (0, 2) and the number of update batches
// (0–3).
func New(seed int64, shape uint16) (g *Generation, err error) {
	digit := func(n int) int { d := int(shape) % n; shape /= uint16(n); return d }
	ti, fi := digit(len(Topologies)), digit(len(Fragmenters))
	opts := tcq.BuildOptions{Problem: []tcq.Problem{tcq.ProblemShortestPath, tcq.ProblemReachability}[digit(2)], MaxChains: 2 * digit(2)}
	batches := digit(4)
	g = &Generation{
		Name:       fmt.Sprintf("%s/%s/%v/maxchains %d/%d batches/seed %d", Topologies[ti], Fragmenters[fi], opts.Problem, opts.MaxChains, batches, seed),
		Fragmenter: Fragmenters[fi],
		Options:    opts,
	}
	defer func() {
		if err != nil {
			g, err = nil, fmt.Errorf("%s: %w", g.Name, err)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	base, err := topology(ti, seed)
	if err != nil {
		return g, err
	}
	if g.Initial, g.Sources, g.Targets, err = fragmenter(fi, base, rng); err != nil {
		return g, err
	}
	nodes := g.Initial.Base().Nodes()
	sets := make([][]graph.Edge, g.Initial.NumFragments())
	for i, f := range g.Initial.Fragments() {
		sets[i] = append(sets[i], f.Edges...)
	}
	for b := 0; b < batches; b++ {
		batch, orphan := randomBatch(rng, nodes, sets, b == 0)
		g.Batches = append(g.Batches, batch)
		if orphan >= 0 {
			g.Sources, g.Targets = append(g.Sources, orphan), append(g.Targets, orphan)
		}
	}
	// Every fourth block is wide: wide blocks exercise multi-row leg
	// tables.
	ns, nt := 3, 3
	if rng.Intn(4) == 0 {
		ns, nt = 9, 1
	}
	for i := 0; i < ns; i++ {
		g.Sources = append(g.Sources, int(nodes[rng.Intn(len(nodes))]))
	}
	for i := 0; i < nt; i++ {
		g.Targets = append(g.Targets, int(nodes[rng.Intn(len(nodes))]))
	}
	truth := graph.New()
	for _, id := range nodes {
		truth.AddNode(id, g.Initial.Base().Coord(id))
	}
	for _, set := range sets {
		for _, e := range set {
			truth.AddEdge(e)
		}
	}
	g.Final, err = fragment.New(truth, sets)
	return g, err
}

// randomBatch draws one batch against the tracked edge sets and updates
// them: an edge between two existing nodes — any two, or two the fragment
// already holds — into a random fragment, a stored edge out of a fragment
// that keeps another, and — when orphan is set and a node allows it —
// every edge some node has, in every fragment, which leaves that node in
// the graph but in no fragment. It returns that node, or -1.
func randomBatch(rng *rand.Rand, nodes []graph.NodeID, sets [][]graph.Edge, orphan bool) (*tcq.Batch, int) {
	b := &tcq.Batch{}
	remove := func(k, i int) {
		e := sets[k][i]
		b.Delete(k, int(e.From), int(e.To), e.Weight)
		sets[k] = append(sets[k][:i], sets[k][i+1:]...)
	}
	k := rng.Intn(len(sets))
	e := graph.Edge{From: nodes[rng.Intn(len(nodes))], To: nodes[rng.Intn(len(nodes))], Weight: 0.5 + 2*rng.Float64()}
	if rng.Intn(2) == 0 { // between the fragment's own nodes: costs move, the disconnection sets do not
		e.From, e.To = sets[k][rng.Intn(len(sets[k]))].From, sets[k][rng.Intn(len(sets[k]))].To
	}
	b.Insert(k, int(e.From), int(e.To), e.Weight)
	sets[k] = append(sets[k], e)
	for _, k := range rng.Perm(len(sets)) {
		if len(sets[k]) > 1 {
			remove(k, rng.Intn(len(sets[k])))
			break
		}
	}
	for try := 0; orphan && try < 8; try++ {
		n := nodes[rng.Intn(len(nodes))]
		touches := func(e graph.Edge) bool { return e.From == n || e.To == n }
		at, ok := 0, true
		for _, set := range sets {
			here := 0
			for _, e := range set {
				if touches(e) {
					here++
				}
			}
			at, ok = at+here, ok && here < len(set)
		}
		if at == 0 || !ok {
			continue // already in no fragment, or the only node of one
		}
		for k := range sets {
			for i := len(sets[k]) - 1; i >= 0; i-- {
				if touches(sets[k][i]) {
					remove(k, i)
				}
			}
		}
		return b, int(n)
	}
	return b, -1
}
