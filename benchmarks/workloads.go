package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/fragment"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
)

// graphSeed fixes every generated graph: --seed changes the op lists
// and nothing else, so set-up time, heap size and fragmentation
// characteristics are the same deployment on every run.
const graphSeed = 1

// writeWeight is the weight of the edge a write transaction inserts and
// deletes again. No shortest path can use it, so writes never change an
// answer and the oracle stays exact across epochs and restarts.
const writeWeight = 1e9

// scale sizes the graphs and op lists. "full" is what BENCHMARK.json
// measures; "tiny" exists for the smoke test, which must build all six
// deployments in a few seconds.
type scale struct {
	name          string
	paperNodes    int // nodes per cluster of the transportation graph
	gridSide      int
	gridFrags     int
	roadEdges     int
	roadCache     int           // leg-cache capacity on road-point, below the source-leg working set
	poolSources   int           // grid pool: distinct sources per fragment ...
	poolTargets   int           // ... times targets per source
	listOps       int           // op-list length (slots) of the point and mixed workloads
	batchOps      int           // op-list length of grid-batch, in requests
	batchPairs    int           // pairs per /v1/batch request
	warmOps       int           // warm-up ops of the evicting workload
	traceMax      int           // most ops replayed per onion level
	blocks        int           // blocks of the timed phase; the end-to-end values are medians over them
	segments      int           // calibrated segments per block
	probeWrites   int           // write transactions in the trailing write probe's list, which it cycles ...
	probeFloor    time.Duration // ... for this long ...
	probeSegments int           // ... in this many calibrated segments
	setups        int           // deployments built per run, at least; setup_s is their median
	setupFloor    time.Duration // set-ups repeat until they have taken this long together ...
	maxSetups     int           // ... or there are this many
	restarts      int           // restarts timed for store.restart_s
	journalTail   int           // journal records left for every restart to replay
	kernelProbes  int           // source legs on which the kernels are timed alone
	calibLoops    int           // loops per client of one machine-speed calibration (see calib.go)
}

var scales = map[string]scale{
	"full": {
		name: "full", paperNodes: 150, gridSide: 64, gridFrags: 8, roadEdges: 200_000, roadCache: 64,
		poolSources: 16, poolTargets: 4, listOps: 3000, batchOps: 240, batchPairs: 8, warmOps: 48,
		traceMax: 400, blocks: 10, segments: 4, probeWrites: 12, probeFloor: 3 * time.Second, probeSegments: 6, setups: 3, setupFloor: 2500 * time.Millisecond, maxSetups: 10, restarts: 3, journalTail: 48, kernelProbes: 16, calibLoops: 30,
	},
	"tiny": {
		name: "tiny", paperNodes: 30, gridSide: 16, gridFrags: 4, roadEdges: 4000, roadCache: 8,
		poolSources: 3, poolTargets: 2, listOps: 120, batchOps: 24, batchPairs: 4, warmOps: 8,
		traceMax: 20, blocks: 2, segments: 1, probeWrites: 3, probeFloor: 20 * time.Millisecond, probeSegments: 2, setups: 1, maxSetups: 1, restarts: 1, journalTail: 3, kernelProbes: 2, calibLoops: 1,
	},
}

// workload is one deployment plus one traffic mix.
type workload struct {
	name string
	// graph names the generated graph family: paper, grid or road.
	graph string
	// evicting gives the server a leg cache smaller than the working
	// set of source legs (scale.roadCache entries), so every op misses
	// once; the other workloads' working sets fit their cache.
	evicting bool
	// nodes is the cluster size; 1 serves everything from one server.
	nodes int
	// durable serves from tcq.OpenStore on a directory: every write is
	// journaled and fsynced before it is acknowledged.
	durable bool
	// batch sends /v1/batch requests of scale.batchPairs pairs.
	batch bool
	// writeEvery makes every n-th slot of the timed phase a write
	// transaction; 0 keeps the timed phase read-only.
	writeEvery int
	// pool draws reads from a fixed pair pool that fits the leg cache;
	// the warm-up sends one pair per source of the pool, so the timed
	// phase runs at a leg hit ratio near 1. Without it every op draws a
	// fresh pair.
	pool bool
	// crossOnly keeps source and target in different fragments. On a
	// cyclic fragmentation graph the same-fragment fast path plans the
	// shared fragment alone and can miss a cheaper route around the
	// cycle (see README, "A wrong answer the oracle found"); a benchmark
	// runs only ops that succeed.
	crossOnly bool
	// oracleEvery checks every n-th read op against the oracle (1 =
	// all). Road-point samples: one oracle answer there is a Dijkstra
	// over 52k nodes.
	oracleEvery int
}

// residentCache is the leg-cache capacity of the workloads whose
// working set must fit: the whole grid pool needs a few hundred entries.
const residentCache = 4096

// cacheCap is the server's leg-cache capacity in entries.
func (w *workload) cacheCap(sc scale) int {
	if w.evicting {
		return sc.roadCache
	}
	return residentCache
}

// workloads is the fixed list BENCHMARK.json names; the README says why
// each exists and which layer it is meant to load.
var workloads = []workload{
	{name: "paper-point", graph: "paper", nodes: 1, crossOnly: true, oracleEvery: 1},
	{name: "grid-point", graph: "grid", nodes: 1, pool: true, oracleEvery: 1},
	{name: "road-point", graph: "road", nodes: 1, evicting: true, oracleEvery: 16},
	{name: "grid-batch", graph: "grid", nodes: 1, pool: true, batch: true, oracleEvery: 1},
	{name: "grid-mixed-durable", graph: "grid", nodes: 1, pool: true, durable: true, writeEvery: 10, oracleEvery: 1},
	{name: "grid-cluster3", graph: "grid", nodes: 3, pool: true, oracleEvery: 1},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// generate builds the workload's base graph; road networks come with
// the generator's own fragment edge sets.
func (w *workload) generate(sc scale) (*graph.Graph, [][]graph.Edge, error) {
	switch w.graph {
	case "paper":
		// The paper's Table 2 scale: 4 clusters of 150 nodes, degree 5.25.
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: 4,
			Cluster:  gen.DefaultsWithDegree(sc.paperNodes, 5.25, graphSeed),
		})
		return g, nil, err
	case "grid":
		g, err := gen.Grid(gen.GridConfig{Width: sc.gridSide, Height: sc.gridSide, DiagonalProb: 0.1, Seed: graphSeed})
		return g, nil, err
	case "road":
		return gen.RoadNetwork(gen.RoadConfigForEdges(sc.roadEdges, graphSeed))
	}
	return nil, nil, fmt.Errorf("workload %s: unknown graph family %q", w.name, w.graph)
}

// fragmentGraph fragments the base graph the way the workload deploys
// it: the paper's center-based algorithm, the linear sweep (wide
// disconnection sets on a grid: the paper's bad case), or the road
// generator's cities (five gateways: the good case).
func (w *workload) fragmentGraph(sc scale, g *graph.Graph, sets [][]graph.Edge) (*fragment.Fragmentation, error) {
	switch w.graph {
	case "paper":
		return center.Fragment(g, center.Options{NumFragments: 4, Distributed: true})
	case "grid":
		res, err := linear.Fragment(g, linear.Options{NumFragments: sc.gridFrags})
		if err != nil {
			return nil, err
		}
		return res.Fragmentation, nil
	}
	return fragment.New(g, sets)
}

// op is one slot of an op list: a read request of one or more pairs, or
// a write transaction. path and body are what goes on the wire, encoded
// once when the list is generated.
type op struct {
	write bool
	pairs [][2]int
	// want holds the oracle's cost per pair; NaN where the pair is not
	// sampled (then only the answer's shape is checked).
	want []float64
	path string
	body []byte
}

func queryJSON(p [2]int) string {
	return `{"sources":[` + strconv.Itoa(p[0]) + `],"targets":[` + strconv.Itoa(p[1]) + `],"mode":"cost"}`
}

func readOp(pairs [][2]int, batch bool) op {
	o := op{pairs: pairs, want: make([]float64, len(pairs))}
	for i := range o.want {
		o.want[i] = math.NaN()
	}
	if !batch {
		o.path, o.body = "/v1/query", []byte(queryJSON(pairs[0]))
		return o
	}
	reqs := make([]string, len(pairs))
	for i, p := range pairs {
		reqs[i] = queryJSON(p)
	}
	o.path, o.body = "/v1/batch", []byte(`{"requests":[`+strings.Join(reqs, ",")+`]}`)
	return o
}

// writeEdge picks the k-th write's edge: two nodes of one fragment,
// rotating over the fragments.
func writeEdge(fr *fragment.Fragmentation, k int) (f, from, to int) {
	f = k % fr.NumFragments()
	nodes := fr.Fragment(f).Nodes()
	return f, int(nodes[0]), int(nodes[len(nodes)/2])
}

// writeOp is one /v1/update transaction that inserts a weight-1e9 edge
// between two nodes of one fragment and deletes it again: a new epoch,
// one rebuilt site, a journal record on a durable store — and no
// changed answer.
func writeOp(fr *fragment.Fragmentation, k int) op {
	f, from, to := writeEdge(fr, k)
	edge := fmt.Sprintf(`"fragment":%d,"from":%d,"to":%d,"weight":%g`, f, from, to, writeWeight)
	return op{
		write: true,
		path:  "/v1/update",
		body:  []byte(`{"ops":[{"op":"insert",` + edge + `},{"op":"delete",` + edge + `}]}`),
	}
}

// opLists is everything a run sends, all of it a function of the seed.
type opLists struct {
	// warm runs once, untimed, before anything is measured.
	warm []op
	// timed is the list the timed phase cycles through: client c takes
	// slots c, c+2, ... .
	timed []op
	// probe is the trailing write probe of the read-only workloads.
	probe []op
}

// rounds returns a function that walks 0..n-1 in a fresh random order,
// round after round, so that any prefix of whole rounds holds every
// index equally often. Op lists are built from rounds and a timed phase
// sends a prefix of its list.
func rounds(rng *rand.Rand, n int) func() int {
	var order []int
	return func() int {
		if len(order) == 0 {
			order = rng.Perm(n)
		}
		i := order[0]
		order = order[1:]
		return i
	}
}

// interiorNodes lists, per fragment, the nodes that belong to that
// fragment alone. Queries start and end there: a border node belongs to
// two fragments and would add chains of its own to the plan.
func interiorNodes(fr *fragment.Fragmentation) [][]graph.NodeID {
	out := make([][]graph.NodeID, fr.NumFragments())
	for f := range out {
		for _, id := range fr.Fragment(f).Nodes() {
			if len(fr.FragmentsOf(id)) == 1 {
				out[f] = append(out[f], id)
			}
		}
	}
	return out
}

// pairIn draws a source in fragment fs and a different target in
// fragment ft.
func pairIn(rng *rand.Rand, interior [][]graph.NodeID, fs, ft int) [2]int {
	for {
		s, t := interior[fs][rng.Intn(len(interior[fs]))], interior[ft][rng.Intn(len(interior[ft]))]
		if s != t {
			return [2]int{int(s), int(t)}
		}
	}
}

// makeOps generates the op lists of one run from its seed. What a query
// costs is decided by the fragments of its endpoints (how many legs, how
// large, which cluster node owns them), so pairs are stratified over
// the ordered fragment pairs, and the order in which the strata come up
// is the same for every seed: the seed picks the nodes that stand for a
// stratum, nothing else. Two runs therefore send structurally the same
// requests in the same order, to the same servers, however far each
// gets in its time.
func (w *workload) makeOps(sc scale, seed int64, fr *fragment.Fragmentation) opLists {
	rng := rand.New(rand.NewSource(seed))
	order := rand.New(rand.NewSource(graphSeed))
	interior := interiorNodes(fr)
	frags := fr.NumFragments()
	var lists opLists
	var draw func() [2]int
	if w.pool {
		// poolSources sources per fragment, each with poolTargets targets
		// whose fragments rotate over all of them. Source legs are cached
		// per source, so the working set is the source legs plus the
		// disconnection-set legs, and one op per source warms all of it.
		var pool [][2]int
		for fs := 0; fs < frags; fs++ {
			for j := 0; j < sc.poolSources; j++ {
				source := pairIn(rng, interior, fs, fs)[0]
				for k := 0; k < sc.poolTargets; k++ {
					ft := (j*sc.poolTargets + k) % frags
					for {
						if t := int(interior[ft][rng.Intn(len(interior[ft]))]); t != source {
							pool = append(pool, [2]int{source, t})
							break
						}
					}
				}
				// The warm-up's targets rotate too, so that it reaches the
				// disconnection-set legs of every direction.
				warm := pool[len(pool)-1-(fs+j)%sc.poolTargets]
				lists.warm = append(lists.warm, readOp([][2]int{warm}, false))
			}
		}
		next := rounds(order, len(pool))
		draw = func() [2]int { return pool[next()] }
	} else {
		var strata [][2]int
		for fs := 0; fs < frags; fs++ {
			for ft := 0; ft < frags; ft++ {
				if fs != ft || !w.crossOnly {
					strata = append(strata, [2]int{fs, ft})
				}
			}
		}
		next := rounds(order, len(strata))
		draw = func() [2]int {
			st := strata[next()]
			return pairIn(rng, interior, st[0], st[1])
		}
		// No pool to pass over: warm with ops of their own. An evicting
		// workload only needs the shared disconnection-set legs hot and
		// the lazy kernels built; a resident one gets a quarter of a list
		// towards its working set.
		n := sc.listOps / 4
		if w.evicting {
			n = sc.warmOps
		}
		for i := 0; i < n; i++ {
			lists.warm = append(lists.warm, readOp([][2]int{draw()}, false))
		}
	}
	slots, pairsPerOp := sc.listOps, 1
	if w.batch {
		slots, pairsPerOp = sc.batchOps, sc.batchPairs
	}
	writes := 0
	for i := 0; i < slots; i++ {
		if w.writeEvery > 0 && i%w.writeEvery == w.writeEvery-1 {
			lists.timed = append(lists.timed, writeOp(fr, writes))
			writes++
			continue
		}
		pairs := make([][2]int, pairsPerOp)
		for j := range pairs {
			pairs[j] = draw()
		}
		lists.timed = append(lists.timed, readOp(pairs, w.batch))
	}
	for i := 0; i < sc.probeWrites; i++ {
		lists.probe = append(lists.probe, writeOp(fr, i))
	}
	return lists
}

// fillOracle computes the expected cost of every sampled pair with a
// plain Dijkstra on the unfragmented base graph, one search per
// distinct source. The sampled ops are the first ones of each list, so
// a time-bounded phase always runs them.
func (w *workload) fillOracle(g *graph.Graph, lists *opLists) (sampled int) {
	bySource := map[int]map[graph.NodeID]float64{}
	expect := func(p [2]int) float64 {
		dist, ok := bySource[p[0]]
		if !ok {
			dist, _ = g.ShortestPaths(graph.NodeID(p[0]))
			bySource[p[0]] = dist
		}
		if d, ok := dist[graph.NodeID(p[1])]; ok {
			return d
		}
		return math.Inf(1)
	}
	for _, list := range [][]op{lists.warm, lists.timed} {
		reads := 0
		for i := range list {
			if list[i].write {
				continue
			}
			if reads%w.oracleEvery == 0 && (w.oracleEvery == 1 || reads/w.oracleEvery < maxSampledOps) {
				for j, p := range list[i].pairs {
					list[i].want[j] = expect(p)
					sampled++
				}
			}
			reads++
		}
	}
	return sampled
}

// maxSampledOps bounds the oracle work of a sampling workload per list.
const maxSampledOps = 20
